package cluster

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestWriteTreeFormat(t *testing.T) {
	tree := &Tree{NLeaves: 3, Merges: []Merge{
		{A: 0, B: 2, Height: 0.1},
		{A: 3, B: 1, Height: 0.4},
	}}
	var buf bytes.Buffer
	if err := WriteTree(&buf, tree, GeneTree); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if lines[0] != "NODE1X\tGENE0X\tGENE2X\t0.9" {
		t.Fatalf("line 0 = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "NODE2X\tNODE1X\tGENE1X\t") {
		t.Fatalf("line 1 = %q", lines[1])
	}
}

func TestWriteTreeArrayKind(t *testing.T) {
	tree := &Tree{NLeaves: 2, Merges: []Merge{{A: 0, B: 1, Height: 0.5}}}
	var buf bytes.Buffer
	if err := WriteTree(&buf, tree, ArrayTree); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ARRY0X") || !strings.Contains(buf.String(), "ARRY1X") {
		t.Fatalf("array tree output = %q", buf.String())
	}
}

func TestTreeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := r.Intn(30) + 2
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		}
		tree, err := HierarchicalCtx(context.Background(), rows, PearsonDist, AverageLinkage)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTree(&buf, tree, GeneTree); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTree(&buf, GeneTree, n)
		if err != nil {
			t.Fatal(err)
		}
		if back.NLeaves != tree.NLeaves || len(back.Merges) != len(tree.Merges) {
			t.Fatalf("shape mismatch: %d/%d vs %d/%d",
				back.NLeaves, len(back.Merges), tree.NLeaves, len(tree.Merges))
		}
		for i := range tree.Merges {
			a, b := tree.Merges[i], back.Merges[i]
			if a.A != b.A || a.B != b.B {
				t.Fatalf("merge %d children: %+v vs %+v", i, a, b)
			}
			if math.Abs(a.Height-b.Height) > 1e-9 {
				t.Fatalf("merge %d height: %v vs %v", i, a.Height, b.Height)
			}
		}
		// Leaf order must survive the round trip exactly.
		ao, bo := tree.LeafOrder(), back.LeafOrder()
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("leaf order changed: %v vs %v", ao, bo)
			}
		}
	}
}

func TestReadTreeErrors(t *testing.T) {
	cases := []struct {
		name, in string
		leaves   int
	}{
		{"short line", "NODE1X\tGENE0X\n", 2},
		{"bad leaf", "NODE1X\tGENE9X\tGENE0X\t0.5\n", 2},
		{"forward node ref", "NODE1X\tNODE9X\tGENE0X\t0.5\n", 2},
		{"bad similarity", "NODE1X\tGENE0X\tGENE1X\tzzz\n", 2},
		{"unknown child", "NODE1X\tWHAT0X\tGENE1X\t0.5\n", 2},
		{"wrong merge count", "NODE1X\tGENE0X\tGENE1X\t0.5\n", 3},
	}
	for _, c := range cases {
		if _, err := ReadTree(strings.NewReader(c.in), GeneTree, c.leaves); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestReadTreeSkipsBlankLines(t *testing.T) {
	in := "NODE1X\tGENE0X\tGENE1X\t0.5\n\n"
	tree, err := ReadTree(strings.NewReader(in), GeneTree, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Merges) != 1 {
		t.Fatalf("merges = %d", len(tree.Merges))
	}
}

func TestSilhouette(t *testing.T) {
	rows := twoBlobs()
	good := []int{0, 0, 0, 1, 1, 1}
	bad := []int{0, 1, 0, 1, 0, 1}
	sGood := Silhouette(rows, good)
	sBad := Silhouette(rows, bad)
	if !(sGood > sBad) {
		t.Fatalf("good clustering silhouette %v should beat bad %v", sGood, sBad)
	}
	if sGood < 0.5 {
		t.Fatalf("well-separated blobs should score high, got %v", sGood)
	}
	if !math.IsNaN(Silhouette(rows, []int{0, 0, 0, 0, 0, 0})) {
		t.Fatal("single cluster silhouette should be NaN")
	}
	if !math.IsNaN(Silhouette(rows[:1], []int{0})) {
		t.Fatal("single row silhouette should be NaN")
	}
}
