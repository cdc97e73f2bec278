package microarray

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

// checkReadPCL holds ReadPCL to its contract on arbitrary bytes — a PCL file
// is what a daemon boots from — and reports whether they parsed: no panic;
// nothing returned beside an error; every gene row exactly one value per
// experiment; what a parse keeps at most 64 times the input (a row cannot
// claim cells it did not bring); and whatever parses survives WritePCL →
// ReadPCL with the same genes, experiments and missing cells.
func checkReadPCL(t testing.TB, data []byte) bool {
	t.Helper()
	ds, err := ReadPCL(bytes.NewReader(data), "fuzz")
	if err != nil {
		if ds != nil {
			t.Fatalf("ReadPCL returned a dataset beside its error %v", err)
		}
		return false
	}
	nE := len(ds.Experiments)
	if len(ds.Data) != len(ds.Genes) || len(ds.GWeights) != len(ds.Genes) || len(ds.EWeights) != nE {
		t.Fatalf("%d genes, %d rows, %d gene weights; %d experiments, %d experiment weights",
			len(ds.Genes), len(ds.Data), len(ds.GWeights), nE, len(ds.EWeights))
	}
	kept := 24 * nE // string headers and weights of the experiments
	for _, e := range ds.Experiments {
		kept += len(e)
	}
	for g, row := range ds.Data {
		if len(row) != nE {
			t.Fatalf("gene row %d has %d values for %d experiments", g, len(row), nE)
		}
		gene := ds.Genes[g]
		kept += 80 + 8*nE + len(gene.ID) + len(gene.Name) + len(gene.Annotation) // Gene, row header, weight, cells
	}
	if kept > 64*len(data) {
		t.Fatalf("a %d-byte file parsed to %d bytes", len(data), kept)
	}

	var buf bytes.Buffer
	if err := WritePCL(&buf, ds); err != nil {
		t.Fatalf("parsed dataset does not serialize: %v", err)
	}
	back, err := ReadPCL(&buf, "fuzz")
	if err != nil {
		t.Fatalf("WritePCL output rejected: %v", err)
	}
	if len(back.Genes) != len(ds.Genes) || len(back.Experiments) != nE {
		t.Fatalf("round trip changed the shape: %dx%d to %dx%d", len(ds.Genes), nE, len(back.Genes), len(back.Experiments))
	}
	for i, e := range ds.Experiments {
		if back.Experiments[i] != e {
			t.Fatalf("round trip renamed experiment %d: %q to %q", i, e, back.Experiments[i])
		}
	}
	for g := range ds.Genes {
		if back.Genes[g] != ds.Genes[g] {
			t.Fatalf("round trip changed gene %d: %+v to %+v", g, ds.Genes[g], back.Genes[g])
		}
		for e, v := range ds.Data[g] {
			if math.IsNaN(v) != math.IsNaN(back.Data[g][e]) {
				t.Fatalf("round trip changed the missingness of cell (%d,%d): %v to %v", g, e, v, back.Data[g][e])
			}
		}
	}
	return true
}

// longLinePCL is a file whose one gene row is a 2 MiB line: past the
// scanner's first buffer, inside its limit. Built here rather than committed.
func longLinePCL() []byte {
	return []byte("ID\tNAME\tGWEIGHT\te1\nG1\tN " + strings.Repeat("x", 2<<20) + "\t1\t0.5\n")
}

// FuzzReadPCL's seeds live in testdata/fuzz/FuzzReadPCL: valid-* parse,
// bad-* are rejected (TestReadPCLCorpus).
func FuzzReadPCL(f *testing.F) {
	f.Add(longLinePCL())
	f.Fuzz(func(t *testing.T, data []byte) { checkReadPCL(t, data) })
}

// TestReadPCLCorpus runs the seed corpus as a plain test — exactly the
// valid-* seeds parse — and measures what parsing allocates: the scanner's
// first buffer and its growth to the longest line (2 MiB covers both for
// every seed but the long line, which is bounded by its own length), plus a
// small multiple of the input.
func TestReadPCLCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadPCL")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corpus := map[string][]byte{"valid-long-line": longLinePCL()}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a one-value go fuzz corpus file", e.Name())
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		corpus[e.Name()] = []byte(s)
	}
	if len(corpus) < 18 {
		t.Fatalf("%d seeds in %s, want the 17 committed ones", len(corpus)-1, dir)
	}
	for name, data := range corpus {
		valid := strings.HasPrefix(name, "valid-")
		if !valid && !strings.HasPrefix(name, "bad-") {
			continue // an input the fuzzer found and someone committed
		}
		if got := checkReadPCL(t, data); got != valid {
			t.Errorf("%s: parsed = %v, want %v", name, got, valid)
		}
		// TotalAlloc is process-wide: the least of three parses.
		got := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			_, _ = ReadPCL(bytes.NewReader(data), name)
			runtime.ReadMemStats(&ms1)
			got = min(got, ms1.TotalAlloc-ms0.TotalAlloc)
		}
		if limit := uint64(2<<20 + 64*len(data)); got > limit {
			t.Errorf("%s: parsing %d bytes allocated %d (limit %d)", name, len(data), got, limit)
		}
	}
	if ds, err := ReadPCL(bytes.NewReader(corpus["valid-crlf"]), "crlf"); err != nil || ds.Experiments[2] != "cold 20min" || ds.Value(0, 2) != 1.5 {
		t.Errorf("CRLF sample: %v, %+v", err, ds)
	}
}
