package cluster

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoBlobs returns rows forming two well-separated correlation groups:
// rows 0..2 rise, rows 3..5 fall.
func twoBlobs() [][]float64 {
	return [][]float64{
		{1, 2, 3, 4},
		{1.1, 2.1, 3.0, 4.2},
		{0.9, 2.2, 2.9, 3.9},
		{4, 3, 2, 1},
		{4.1, 2.9, 2.1, 1.1},
		{3.9, 3.1, 1.9, 0.8},
	}
}

func TestMetricDistanceBasics(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{2, 4, 6}
	if d := distance(a, b); math.Abs(d) > 1e-9 {
		t.Fatalf("colinear Pearson distance = %v, want 0", d)
	}
	anti := []float64{3, 2, 1}
	if d := distance(a, anti); math.Abs(d-2) > 1e-9 {
		t.Fatalf("anti-correlated distance = %v, want 2", d)
	}
	// Missing cells are skipped pairwise: the observed pairs are colinear.
	if d := distance([]float64{1, math.NaN(), 3, 4}, []float64{2, 99, 6, 8}); math.Abs(d) > 1e-9 {
		t.Fatalf("Pearson distance over observed pairs = %v, want 0", d)
	}
}

func TestMetricDegenerateRows(t *testing.T) {
	flat := []float64{1, 1, 1}
	x := []float64{1, 2, 3}
	if d := distance(flat, x); d != 2 {
		t.Fatalf("flat-row Pearson distance = %v, want max (2)", d)
	}
	missing := []float64{math.NaN(), math.NaN(), math.NaN()}
	if d := distance(missing, x); d != 2 {
		t.Fatalf("all-missing Pearson distance = %v, want max (2)", d)
	}
	if d := distance([]float64{1, 2, math.NaN()}, []float64{math.NaN(), 3, 1}); d != 2 {
		t.Fatalf("one shared cell: Pearson distance = %v, want max (2)", d)
	}
}

func TestMetricStrings(t *testing.T) {
	if got := PearsonDist.String(); got != "correlation (centered)" {
		t.Fatalf("PearsonDist.String() = %q", got)
	}
	if got := Metric(4).String(); got != "Metric(4)" {
		t.Fatalf("Metric(4).String() = %q", got)
	}
	for l, want := range map[Linkage]string{
		AverageLinkage: "average", CompleteLinkage: "complete", SingleLinkage: "single",
	} {
		if l.String() != want {
			t.Fatalf("linkage name %q != %q", l.String(), want)
		}
	}
}

func TestHierarchicalTwoGroups(t *testing.T) {
	rows := twoBlobs()
	tree, err := HierarchicalCtx(context.Background(), rows, PearsonDist, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	assign, err := tree.Cut(2)
	if err != nil {
		t.Fatal(err)
	}
	// Rows 0-2 must share a cluster, rows 3-5 the other.
	if assign[0] != assign[1] || assign[1] != assign[2] {
		t.Fatalf("rising group split: %v", assign)
	}
	if assign[3] != assign[4] || assign[4] != assign[5] {
		t.Fatalf("falling group split: %v", assign)
	}
	if assign[0] == assign[3] {
		t.Fatalf("groups merged: %v", assign)
	}
}

func TestHierarchicalAllLinkages(t *testing.T) {
	rows := twoBlobs()
	for _, lk := range []Linkage{AverageLinkage, CompleteLinkage, SingleLinkage} {
		tree, err := HierarchicalCtx(context.Background(), rows, PearsonDist, lk)
		if err != nil {
			t.Fatalf("%v: %v", lk, err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("%v: %v", lk, err)
		}
		order := tree.LeafOrder()
		if len(order) != len(rows) {
			t.Fatalf("%v: leaf order has %d entries", lk, len(order))
		}
		// Every linkage separates the rising rows from the falling ones.
		assign, err := tree.Cut(2)
		if err != nil {
			t.Fatalf("%v: %v", lk, err)
		}
		if assign[0] != assign[1] || assign[0] != assign[2] || assign[3] != assign[4] ||
			assign[3] != assign[5] || assign[0] == assign[3] {
			t.Fatalf("%v: two groups cut as %v", lk, assign)
		}
	}
}

func TestHierarchicalEdgeCases(t *testing.T) {
	if _, err := HierarchicalCtx(context.Background(), nil, PearsonDist, AverageLinkage); err == nil {
		t.Fatal("empty input should error")
	}
	tree, err := HierarchicalCtx(context.Background(), [][]float64{{1, 2}}, PearsonDist, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NLeaves != 1 || len(tree.Merges) != 0 {
		t.Fatalf("single-row tree: %+v", tree)
	}
	if got := tree.LeafOrder(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single leaf order = %v", got)
	}
	two, err := HierarchicalCtx(context.Background(), [][]float64{{1, 2, 3}, {3, 2, 1}}, PearsonDist, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if len(two.Merges) != 1 || math.Abs(two.Merges[0].Height-2) > 1e-9 {
		t.Fatalf("two-row merge = %+v", two.Merges)
	}
}

func TestHierarchicalMonotoneHeights(t *testing.T) {
	// Average and complete linkage cannot produce inversions.
	r := rand.New(rand.NewSource(42))
	rows := make([][]float64, 40)
	for i := range rows {
		rows[i] = make([]float64, 10)
		for j := range rows[i] {
			rows[i][j] = r.NormFloat64()
		}
	}
	for _, lk := range []Linkage{AverageLinkage, CompleteLinkage} {
		tree, err := HierarchicalCtx(context.Background(), rows, PearsonDist, lk)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(tree.Merges); i++ {
			if tree.Merges[i].Height < tree.Merges[i-1].Height-1e-9 {
				t.Fatalf("%v: inversion at merge %d: %v < %v",
					lk, i, tree.Merges[i].Height, tree.Merges[i-1].Height)
			}
		}
	}
}

func TestLeafOrderIsPermutation(t *testing.T) {
	rows := twoBlobs()
	tree, _ := HierarchicalCtx(context.Background(), rows, PearsonDist, AverageLinkage)
	order := tree.LeafOrder()
	seen := make([]bool, len(rows))
	for _, o := range order {
		if o < 0 || o >= len(rows) || seen[o] {
			t.Fatalf("leaf order not a permutation: %v", order)
		}
		seen[o] = true
	}
}

func TestCutExtremes(t *testing.T) {
	rows := twoBlobs()
	tree, _ := HierarchicalCtx(context.Background(), rows, PearsonDist, AverageLinkage)
	one, err := tree.Cut(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range one {
		if c != 0 {
			t.Fatalf("k=1 should put everything in cluster 0: %v", one)
		}
	}
	all, err := tree.Cut(len(rows))
	if err != nil {
		t.Fatal(err)
	}
	distinct := make(map[int]bool)
	for _, c := range all {
		distinct[c] = true
	}
	if len(distinct) != len(rows) {
		t.Fatalf("k=n should give singletons: %v", all)
	}
	if _, err := tree.Cut(0); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := tree.Cut(len(rows) + 1); err == nil {
		t.Fatal("k>n should error")
	}
}

func TestTreeValidateRejectsBadTrees(t *testing.T) {
	bad := &Tree{NLeaves: 3, Merges: []Merge{{A: 0, B: 0, Height: 1}, {A: 3, B: 2, Height: 2}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("child used twice should fail")
	}
	short := &Tree{NLeaves: 3, Merges: []Merge{{A: 0, B: 1, Height: 1}}}
	if err := short.Validate(); err == nil {
		t.Fatal("missing merges should fail")
	}
	forward := &Tree{NLeaves: 2, Merges: []Merge{{A: 0, B: 5, Height: 1}}}
	if err := forward.Validate(); err == nil {
		t.Fatal("forward reference should fail")
	}
	none := &Tree{NLeaves: 0}
	if err := none.Validate(); err == nil {
		t.Fatal("zero leaves should fail")
	}
}

// Property: for random data, the tree is always a valid dendrogram and its
// leaf order a permutation, under every linkage.
func TestQuickHierarchicalAlwaysValid(t *testing.T) {
	f := func(seed int64, nBits, linkBits uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nBits%20) + 2
		dim := 6
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, dim)
			for j := range rows[i] {
				rows[i][j] = r.NormFloat64()
			}
			if r.Float64() < 0.2 {
				rows[i][r.Intn(dim)] = math.NaN()
			}
		}
		linkage := Linkage(int(linkBits) % 3)
		tree, err := HierarchicalCtx(context.Background(), rows, PearsonDist, linkage)
		if err != nil {
			return false
		}
		if tree.Validate() != nil {
			return false
		}
		order := tree.LeafOrder()
		seen := make([]bool, n)
		for _, o := range order {
			if o < 0 || o >= n || seen[o] {
				return false
			}
			seen[o] = true
		}
		return len(order) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cut(k) always yields exactly k clusters with IDs 0..k-1.
func TestQuickCutClusterCount(t *testing.T) {
	f := func(seed int64, nBits, kBits uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nBits%15) + 2
		k := int(kBits)%n + 1
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		}
		tree, err := HierarchicalCtx(context.Background(), rows, PearsonDist, AverageLinkage)
		if err != nil {
			return false
		}
		assign, err := tree.Cut(k)
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		for _, c := range assign {
			if c < 0 || c >= k {
				return false
			}
			seen[c] = true
		}
		return len(seen) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
