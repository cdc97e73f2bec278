package cluster

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// checkReadTree holds ReadTree to the boot-time parsers' contract on
// arbitrary bytes — a GTR or ATR file is what a warm boot will read a pane's
// dendrogram from — and reports whether they parsed as a tree over nLeaves
// leaves: no panic; nothing returned beside an error; what parses is a valid
// tree (every node merged once, children before parents) with finite heights,
// no larger than the file that named its merges; and it survives WriteTree →
// ReadTree with the same merges, heights to within an ulp of 1 or of
// themselves.
func checkReadTree(t testing.TB, data []byte, kind TreeKind, nLeaves int) bool {
	t.Helper()
	tree, err := ReadTree(bytes.NewReader(data), kind, nLeaves)
	if err != nil {
		if tree != nil {
			t.Fatalf("ReadTree returned a tree beside its error %v", err)
		}
		return false
	}
	if err := tree.Validate(); err != nil || tree.NLeaves != nLeaves {
		t.Fatalf("ReadTree accepted an invalid tree over %d leaves (asked for %d): %v", tree.NLeaves, nLeaves, err)
	}
	if 24*len(tree.Merges) > 8*len(data) { // a merge line is 4 fields and a newline at the least
		t.Fatalf("a %d-byte file parsed to %d merges", len(data), len(tree.Merges))
	}
	for i, m := range tree.Merges {
		if math.IsNaN(m.Height) || math.IsInf(m.Height, 0) {
			t.Fatalf("merge %d has height %v", i, m.Height)
		}
	}
	var buf bytes.Buffer
	if err := WriteTree(&buf, tree, kind); err != nil {
		t.Fatalf("parsed tree does not serialize: %v", err)
	}
	back, err := ReadTree(&buf, kind, nLeaves)
	if err != nil {
		t.Fatalf("WriteTree output rejected: %v", err)
	}
	if len(back.Merges) != len(tree.Merges) {
		t.Fatalf("round trip changed %d merges to %d", len(tree.Merges), len(back.Merges))
	}
	for i, m := range tree.Merges {
		b := back.Merges[i]
		if b.A != m.A || b.B != m.B || math.Abs(b.Height-m.Height) > 1e-15*max(1, math.Abs(m.Height)) {
			t.Fatalf("round trip changed merge %d: %+v to %+v", i, m, b)
		}
	}
	return true
}

// FuzzReadTree's seeds live in testdata/fuzz/FuzzReadTree, GTR and ATR both:
// valid-* parse, bad-* are rejected (TestReadTreeCorpus). nLeaves is what the
// paired CDT would say; the fuzzer may claim anything up to a CDT's size.
func FuzzReadTree(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, array bool, nLeaves int) {
		if nLeaves > 1<<20 {
			nLeaves %= 1 << 20
		}
		checkReadTree(t, data, kindOf(array), nLeaves)
	})
}

func kindOf(array bool) TreeKind {
	if array {
		return ArrayTree
	}
	return GeneTree
}

// TestReadTreeCorpus runs the seed corpus as a plain test — exactly the
// valid-* seeds parse — and measures what parsing allocates: the scanner's
// first buffer (1 MiB) and a small multiple of the input, whatever leaf count
// the caller claims.
func TestReadTreeCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadTree")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 16 {
		t.Fatalf("%d seeds in %s, want the 16 committed ones", len(entries), dir)
	}
	for _, e := range entries {
		name := e.Name()
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		// The three values of a seed, as `go test` writes them.
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 4 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a three-value go fuzz corpus file", name)
		}
		s, err1 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		array, err2 := strconv.ParseBool(strings.TrimSuffix(strings.TrimPrefix(lines[2], "bool("), ")"))
		nLeaves, err3 := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(lines[3], "int("), ")"))
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("%s: %v, %v, %v", name, err1, err2, err3)
		}
		data, kind := []byte(s), kindOf(array)
		valid := strings.HasPrefix(name, "valid-")
		if !valid && !strings.HasPrefix(name, "bad-") {
			continue // an input the fuzzer found and someone committed
		}
		if got := checkReadTree(t, data, kind, nLeaves); got != valid {
			t.Errorf("%s: parsed = %v, want %v", name, got, valid)
		}
		// TotalAlloc is process-wide: the least of three parses.
		got := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			_, _ = ReadTree(bytes.NewReader(data), kind, nLeaves)
			runtime.ReadMemStats(&ms1)
			got = min(got, ms1.TotalAlloc-ms0.TotalAlloc)
		}
		if limit := uint64(1<<20 + 4096 + 64*len(data)); got > limit {
			t.Errorf("%s: parsing %d bytes for %d leaves allocated %d (limit %d)", name, len(data), nLeaves, got, limit)
		}
	}
}
