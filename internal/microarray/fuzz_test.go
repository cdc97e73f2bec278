package microarray

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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

// seedCorpus reads the one-value seed files committed under
// testdata/fuzz/<target>, at least want of them.
func seedCorpus(t *testing.T, target string, want int) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corpus := make(map[string][]byte)
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
	if len(corpus) < want {
		t.Fatalf("%d seeds in %s, want the %d committed ones", len(corpus), dir, want)
	}
	return corpus
}

// checkCorpus runs a seed corpus as a plain test — exactly the valid-* seeds
// parse, the bad-* ones are rejected — and measures what parse allocates:
// the scanner's first buffer and its growth to the longest line (2 MiB
// covers both for every seed but a long line, which is bounded by its own
// length), plus a small multiple of the input.
func checkCorpus(t *testing.T, corpus map[string][]byte, check func(testing.TB, []byte) bool, parse func([]byte)) {
	t.Helper()
	for name, data := range corpus {
		valid := strings.HasPrefix(name, "valid-")
		if !valid && !strings.HasPrefix(name, "bad-") {
			continue // an input the fuzzer found and someone committed
		}
		if got := check(t, data); got != valid {
			t.Errorf("%s: parsed = %v, want %v", name, got, valid)
		}
		// TotalAlloc is process-wide: the least of three parses.
		got := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			parse(data)
			runtime.ReadMemStats(&ms1)
			got = min(got, ms1.TotalAlloc-ms0.TotalAlloc)
		}
		if limit := uint64(2<<20 + 64*len(data)); got > limit {
			t.Errorf("%s: parsing %d bytes allocated %d (limit %d)", name, len(data), got, limit)
		}
	}
}

// longLinePCL is a file whose one gene row is a 2 MiB line: past the
// scanner's first buffer, inside its limit. Built here rather than committed.
func longLinePCL() []byte {
	return []byte("ID\tNAME\tGWEIGHT\te1\nG1\tN " + strings.Repeat("x", 2<<20) + "\t1\t0.5\n")
}

// FuzzReadPCL's seeds live in testdata/fuzz/FuzzReadPCL: valid-* parse,
// bad-* are rejected (TestReadPCLCorpus). Every input also parses the same
// in any number of spans as in one.
func FuzzReadPCL(f *testing.F) {
	f.Add(longLinePCL())
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadPCL(t, data)
		checkSpansAgree(t, data, "PCL")
	})
}

// TestReadPCLCorpus runs the seed corpus (and the long line) as a plain test.
func TestReadPCLCorpus(t *testing.T) {
	corpus := seedCorpus(t, "FuzzReadPCL", 17)
	corpus["valid-long-line"] = longLinePCL()
	checkCorpus(t, corpus, checkReadPCL, func(data []byte) { _, _ = ReadPCL(bytes.NewReader(data), "corpus") })
	if ds, err := ReadPCL(bytes.NewReader(corpus["valid-crlf"]), "crlf"); err != nil || ds.Experiments[2] != "cold 20min" || ds.Value(0, 2) != 1.5 {
		t.Errorf("CRLF sample: %v, %+v", err, ds)
	}
}

// checkReadCDT holds ReadCDT to checkReadPCL's contract — a CDT file is what
// a warm boot will read a clustered pane from — and reports whether the bytes
// parsed: no panic; nothing returned beside an error; every gene row exactly
// one value per experiment, one GID per gene and one AID per experiment where
// the file has them; what a parse keeps at most 64 times the input; and
// whatever parses survives WriteCDT → ReadCDT with the same genes,
// experiments, leaf IDs and missing cells.
func checkReadCDT(t testing.TB, data []byte) bool {
	t.Helper()
	c, err := ReadCDT(bytes.NewReader(data), "fuzz")
	if err != nil {
		if c != nil {
			t.Fatalf("ReadCDT returned a table beside its error %v", err)
		}
		return false
	}
	ds := c.Dataset
	nE := len(ds.Experiments)
	if len(ds.Data) != len(ds.Genes) || len(ds.GWeights) != len(ds.Genes) || len(ds.EWeights) != nE {
		t.Fatalf("%d genes, %d rows, %d gene weights; %d experiments, %d experiment weights",
			len(ds.Genes), len(ds.Data), len(ds.GWeights), nE, len(ds.EWeights))
	}
	if c.GIDs != nil && len(c.GIDs) != len(ds.Genes) || c.AIDs != nil && len(c.AIDs) != nE {
		t.Fatalf("%d GIDs for %d genes, %d AIDs for %d experiments", len(c.GIDs), len(ds.Genes), len(c.AIDs), nE)
	}
	kept := 24 * nE // string headers and weights of the experiments
	for _, e := range ds.Experiments {
		kept += len(e)
	}
	for _, aid := range c.AIDs {
		kept += 16 + len(aid)
	}
	for _, gid := range c.GIDs {
		kept += 16 + len(gid)
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
	if err := WriteCDT(&buf, c); err != nil {
		t.Fatalf("parsed table does not serialize: %v", err)
	}
	back, err := ReadCDT(&buf, "fuzz")
	if err != nil {
		t.Fatalf("WriteCDT output rejected: %v", err)
	}
	if !slices.Equal(back.Dataset.Experiments, ds.Experiments) || !slices.Equal(back.Dataset.Genes, ds.Genes) {
		t.Fatalf("round trip changed the genes or experiments: %dx%d to %dx%d",
			len(ds.Genes), nE, len(back.Dataset.Genes), len(back.Dataset.Experiments))
	}
	if (back.GIDs == nil) != (c.GIDs == nil) || !slices.Equal(back.GIDs, c.GIDs) ||
		(back.AIDs == nil) != (c.AIDs == nil) || !slices.Equal(back.AIDs, c.AIDs) {
		t.Fatalf("round trip changed the leaf IDs: GIDs %q to %q, AIDs %q to %q", c.GIDs, back.GIDs, c.AIDs, back.AIDs)
	}
	for g, row := range ds.Data {
		for e, v := range row {
			if math.IsNaN(v) != math.IsNaN(back.Dataset.Data[g][e]) {
				t.Fatalf("round trip changed the missingness of cell (%d,%d): %v to %v", g, e, v, back.Dataset.Data[g][e])
			}
		}
	}
	return true
}

// FuzzReadCDT's seeds live in testdata/fuzz/FuzzReadCDT: valid-* parse,
// bad-* are rejected (TestReadCDTCorpus). Every input also parses the same
// in any number of spans as in one.
func FuzzReadCDT(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadCDT(t, data)
		checkSpansAgree(t, data, "CDT")
	})
}

// TestReadCDTCorpus runs the seed corpus as a plain test.
func TestReadCDTCorpus(t *testing.T) {
	corpus := seedCorpus(t, "FuzzReadCDT", 16)
	checkCorpus(t, corpus, checkReadCDT, func(data []byte) { _, _ = ReadCDT(bytes.NewReader(data), "corpus") })
	c, err := ReadCDT(bytes.NewReader(corpus["valid-sample"]), "sample")
	if err != nil || c.GIDs[1] != "GENE0X" || c.AIDs[2] != "ARRY1X" || c.Dataset.Value(1, 2) != -0.5 || c.Dataset.EWeights[0] != 2 {
		t.Errorf("sample: %v, %+v", err, c)
	}
}

// referenceCell is a cell's meaning spelled with strings and strconv:
// trimmed; blank, "NA" or "NaN" in any case missing; anything else
// ParseFloat's.
func referenceCell(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "NA") || strings.EqualFold(s, "NaN") {
		return Missing, nil
	}
	return strconv.ParseFloat(s, 64)
}

// FuzzParseCell holds the cell parser to strconv. Where parseCell accepts a
// prefix, ParseFloat accepts it too with the same bits. The reader's cell, on
// either path, gives referenceCell's bits or error for the field before the
// first tab, and so does a PCL row of that one cell. Seeds live in
// testdata/fuzz/FuzzParseCell.
func FuzzParseCell(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if v, n := parseCell(data); n > 0 {
			want, err := strconv.ParseFloat(string(data[:n]), 64)
			if err != nil || math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("parseCell(%q) = %v on %d bytes; ParseFloat: %v, %v", data, v, n, want, err)
			}
		}
		field, rest := cut(data)
		want, wantErr := referenceCell(string(field))
		sameCell := func(what string, got float64, err error, wantErr error) {
			t.Helper()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || err == nil && math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s of %q = %v, %v; want %v, %v", what, data, got, err, want, wantErr)
			}
		}
		got, tail, err := cell(data)
		sameCell("cell", got, err, wantErr)
		if err == nil && !bytes.Equal(tail, rest) {
			t.Fatalf("cell of %q left %q, want %q", data, tail, rest)
		}
		if bytes.ContainsAny(data, "\t\n") || bytes.HasSuffix(data, []byte("\r")) {
			return // not one cell of a row
		}
		ds, err := ReadPCL(bytes.NewReader(append([]byte("ID\tNAME\te1\nG\tN\t"), data...)), "cell")
		if wantErr != nil {
			wantErr = fmt.Errorf("microarray: PCL line 2 column 3: %w", wantErr)
		}
		if err == nil {
			got = ds.Data[0][0]
		}
		sameCell("a row's cell", got, err, wantErr)
	})
}
