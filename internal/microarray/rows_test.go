package microarray

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// leakFile is a 2,000-gene file of 40 experiments whose every gene carries a
// 200-byte annotation: a CDT with a GID column when cdt is set, else a PCL.
func leakFile(cdt bool) []byte {
	const genes, exps = 2000, 40
	var b bytes.Buffer
	if cdt {
		b.WriteString("GID\t")
	}
	b.WriteString("ID\tNAME\tGWEIGHT")
	for e := range exps {
		fmt.Fprintf(&b, "\te%d", e)
	}
	b.WriteByte('\n')
	for g := range genes {
		if cdt {
			fmt.Fprintf(&b, "%s\t", GeneLeafID(g))
		}
		fmt.Fprintf(&b, "Y%06d\tN%d %s\t1", g, g, strings.Repeat("a", 200))
		for e := range exps {
			fmt.Fprintf(&b, "\t%.6f", float64((g*37+e)%2000)/1000-1)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// checkKeepsNoLine parses a file and holds what the parse leaves on the live
// heap to what the dataset needs: 8 bytes a cell, the bytes of every ID,
// name, annotation and GID, keepPerGene for each gene's Gene, row header,
// weight, index entry and GID header, and keepPerFile. A reader whose
// strings are substrings of their lines keeps every line's cell text too.
func checkKeepsNoLine(t *testing.T, data []byte, parse func(io.Reader) (*Dataset, []string, error)) {
	const keepPerGene, keepPerFile = 256, 16 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	ds, gids, err := parse(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	limit := keepPerFile + len(ds.Genes)*(keepPerGene+8*len(ds.Experiments))
	for _, g := range ds.Genes {
		limit += len(g.ID) + len(g.Name) + len(g.Annotation)
	}
	for _, gid := range gids {
		limit += len(gid)
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("the live heap grew by %d bytes, limit %d", grown, limit)
	if grown > int64(limit) {
		t.Errorf("%d genes x %d experiments from %d bytes: the live heap grew by %d bytes, limit %d",
			len(ds.Genes), len(ds.Experiments), len(data), grown, limit)
	}
	for g, row := range ds.Data {
		if cap(row) != len(row) {
			t.Fatalf("row %d has cap %d, len %d: an append would write into the next row", g, cap(row), len(row))
		}
	}
	runtime.KeepAlive(ds)
	runtime.KeepAlive(gids)
}

func TestReadPCLKeepsNoLine(t *testing.T) {
	checkKeepsNoLine(t, leakFile(false), func(r io.Reader) (*Dataset, []string, error) {
		ds, err := ReadPCL(r, "leak")
		return ds, nil, err
	})
}

func TestReadCDTKeepsNoLine(t *testing.T) {
	checkKeepsNoLine(t, leakFile(true), func(r io.Reader) (*Dataset, []string, error) {
		c, err := ReadCDT(r, "leak")
		if err != nil {
			return nil, nil, err
		}
		return c.Dataset, c.GIDs, nil
	})
}

// failingReader yields data, then err instead of io.EOF.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestReadPCLLineErrors pins the reader's two line errors: a line of 16 MiB
// or more is bufio.ErrTooLong, as bufio.Scanner's limit made it, and a read
// error is the error, with the partial line before it left unparsed.
func TestReadPCLLineErrors(t *testing.T) {
	long := "ID\tNAME\tGWEIGHT\te1\nG1\tN " + strings.Repeat("x", maxLine) + "\t1\t0.5\n"
	if _, err := ReadPCL(strings.NewReader(long), "long"); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("a %d-byte line: %v, want bufio.ErrTooLong", len(long), err)
	}
	broken := errors.New("disk on fire")
	r := &failingReader{data: []byte("ID\tNAME\tGWEIGHT\te1\nG1\tN\t1\t0.5\nG2\tN\t1\tnot-a-num"), err: broken}
	if _, err := ReadPCL(r, "broken"); !errors.Is(err, broken) || !strings.HasPrefix(err.Error(), "microarray: reading PCL: ") {
		t.Errorf("a read error after a partial line: %v, want %v", err, broken)
	}
}

// diffTables says how two parses of one input differ, "" when they agree
// bit for bit: the error text, or the dataset down to each cell's and
// weight's bits, the leaf IDs, the index, and the layout — rows back to back
// in one cells array with cap == len, and every gene's GID, ID, name and
// annotation back to back in one text arena.
func diffTables(a, b *CDT, errA, errB error) string {
	if fmt.Sprint(errA) != fmt.Sprint(errB) || (a == nil) != (b == nil) {
		return fmt.Sprintf("error %v, table %v; vs error %v, table %v", errA, a != nil, errB, b != nil)
	}
	if a == nil {
		return ""
	}
	sameBits := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	}
	da, db := a.Dataset, b.Dataset
	switch {
	case da.Name != db.Name || !slices.Equal(da.Experiments, db.Experiments) || !sameBits(da.EWeights, db.EWeights):
		return "names, experiments or experiment weights"
	case !slices.Equal(da.Genes, db.Genes) || !sameBits(da.GWeights, db.GWeights) || !maps.Equal(da.idIndex, db.idIndex):
		return "genes, gene weights or the index"
	case (a.GIDs == nil) != (b.GIDs == nil) || !slices.Equal(a.GIDs, b.GIDs) || (a.AIDs == nil) != (b.AIDs == nil) || !slices.Equal(a.AIDs, b.AIDs):
		return fmt.Sprintf("leaf IDs: GIDs %q vs %q, AIDs %q vs %q", a.GIDs, b.GIDs, a.AIDs, b.AIDs)
	case len(da.Data) != len(db.Data) || len(da.GWeights) != len(da.Genes) || len(da.Data) != len(da.Genes):
		return fmt.Sprintf("%d and %d rows for %d genes", len(da.Data), len(db.Data), len(da.Genes))
	}
	for _, c := range []*CDT{a, b} {
		var cells, text unsafe.Pointer
		at := 0
		for g, row := range c.Dataset.Data {
			if cap(row) != len(row) || len(row) != len(c.Dataset.Experiments) {
				return fmt.Sprintf("row %d has len %d, cap %d", g, len(row), cap(row))
			}
			if len(row) > 0 && cells == nil {
				cells = unsafe.Pointer(unsafe.SliceData(row))
			}
			if len(row) > 0 && unsafe.Pointer(unsafe.SliceData(row)) != unsafe.Add(cells, 8*g*len(row)) {
				return fmt.Sprintf("row %d is not where row %d's cells end", g, g-1)
			}
			gene := c.Dataset.Genes[g]
			strs := []string{gene.ID, gene.Name, gene.Annotation}
			if c.GIDs != nil {
				strs = append([]string{c.GIDs[g]}, strs...)
			}
			for _, s := range strs {
				if len(s) > 0 && text == nil {
					text = unsafe.Pointer(unsafe.StringData(s))
				}
				if len(s) > 0 && unsafe.Pointer(unsafe.StringData(s)) != unsafe.Add(text, at) {
					return fmt.Sprintf("gene %d's %q is not where the strings before it end", g, s)
				}
				at += len(s)
			}
		}
	}
	for g := range da.Data {
		if !sameBits(da.Data[g], db.Data[g]) {
			return fmt.Sprintf("row %d: %v vs %v", g, da.Data[g], db.Data[g])
		}
	}
	return ""
}

// checkSpansAgree parses data as kind in one span, then in 2 and 3, one
// line a span and the default split, and fails unless every parse agrees
// with the first bit for bit, or gives the same error.
func checkSpansAgree(t testing.TB, data []byte, kind string) {
	t.Helper()
	want, wantErr := readSpans(bytes.NewReader(data), "spans", kind, 1)
	for _, spans := range []int{2, 3, max(1, len(data)), 0} { // len(data) spans: one line each
		got, err := readSpans(bytes.NewReader(data), "spans", kind, spans)
		if d := diffTables(want, got, wantErr, err); d != "" {
			t.Fatalf("%s of %d bytes in %d spans differs from one span: %s", kind, len(data), spans, d)
		}
	}
}

// spanCase is an input whose first error in line order, or whose EWEIGHT
// and AID rows, sit in one span and matter to another, and what reading it
// as a CDT gives: the error, or "" when it parses.
type spanCase struct{ in, err string }

var spanCases = map[string]spanCase{
	"dup-before-bad-row": {"ID\tNAME\tGWEIGHT\te1\nG1\tN\t1\t1\nG2\tN\t1\t2\nG1\tN\t1\t3\nG3\tN\t1\t4\nG4\tN\t1\tbad\n",
		`microarray: CDT line 4: duplicate gene ID "G1"`},
	"bad-row-before-dup": {"ID\tNAME\tGWEIGHT\te1\nG1\tN\t1\t1\nG2\tN\t1\tbad\nG1\tN\t1\t3\n",
		`microarray: CDT line 3 column 4: strconv.ParseFloat: parsing "bad": invalid syntax`},
	"dup-before-second-aid": {"GID\tID\tNAME\tGWEIGHT\te1\nAID\t\t\t\tA1\nGENE0X\tG1\tN\t1\t1\nGENE1X\tG1\tN\t1\t2\n" +
		"GENE2X\tG2\tN\t1\t1\nAID\t\t\t\tA2\nGENE3X\tG3\tN\t1\t1\n",
		`microarray: CDT line 4: duplicate gene ID "G1"`},
	"second-aid-before-dup": {"GID\tID\tNAME\tGWEIGHT\te1\nAID\t\t\t\tA1\nGENE0X\tG1\tN\t1\t1\nAID\t\t\t\tA2\n" +
		"GENE2X\tG2\tN\t1\t1\nGENE3X\tG1\tN\t1\t1\n",
		"microarray: CDT line 4: a second AID row"},
	"second-aid-before-bad-row": {"GID\tID\tNAME\tGWEIGHT\te1\tE2\nGENE0X\tG1\tN\t1\t1\t2\nAID\t\t\t\tA1\tA2\n" +
		"GENE1X\tG2\tN\t1\t1\t2\nAID\t\t\t\tB1\tB2\nGENE2X\tG3\tN\t1\t1\n",
		"microarray: CDT line 5: a second AID row"},
	"eweights-late-and-split": {"GID\tID\tNAME\tGWEIGHT\te1\te2\te3\nEWEIGHT\t\t\t\t2\t2\t2\n\r\nGENE0X\tG1\tN a\t1\t1\t2\t3\n" +
		"EWEIGHT\t\t\t\t\t0.5\nGENE1X\tG2\tN\t0.5\t\tNA\t3\r\n  \nGENE2X\tG3\tN b c\t1\t1\t2\t3\t4\nAID\t\t\t\tA\tB\tC\nEWEIGHT\t\t\t\tx\t\t7", ""},
	"short-line-no-row": {"ID\tNAME\tGWEIGHT\te1\te2\te3\te4\nG1\tN\t1\t1\t2\t3\t4\nG2\nG3\tN\t1\t1\t2\t3\t4\n",
		"microarray: CDT line 3 has 1 columns, the header has 7"},
}

// TestReadTableSpansAgree holds the split to the one-span parse on every
// committed reader seed, the unit tests' inputs and spanCases, read as a PCL
// and as a CDT: the same dataset bit for bit, or the same error. It pins the
// first error in line order where it crosses spans: spanCases', a read
// error's or a long line's.
func TestReadTableSpansAgree(t *testing.T) {
	inputs := map[string][]byte{
		"sample":    []byte(samplePCL),
		"leak-pcl":  leakFile(false),
		"leak-cdt":  leakFile(true),
		"long-line": longLinePCL(),
		"too-long":  []byte("ID\tNAME\tGWEIGHT\te1\nG1\tN " + strings.Repeat("x", maxLine) + "\t1\t0.5\n"),
		"no-gw":     []byte("ID\tNAME\texp1\texp2\nG1\tN1\t1\t2\n"),
		"short-hdr": []byte("ID\n"),
		"bad-cell":  []byte("ID\tNAME\tGWEIGHT\te1\nG1\tN\t1\tnot-a-number\n"),
		"dup":       []byte("ID\tNAME\tGWEIGHT\te1\nG1\tN\t1\t1\nG1\tN\t1\t2\n"),
	}
	for _, target := range []string{"FuzzReadPCL", "FuzzReadCDT"} {
		for name, data := range seedCorpus(t, target, 16) {
			inputs[target+"/"+name] = data
		}
	}
	for name, c := range spanCases {
		inputs[name] = []byte(c.in)
		for _, spans := range []int{1, 2, 3, len(c.in)} {
			if _, err := readSpans(strings.NewReader(c.in), "x", "CDT", spans); fmt.Sprint(err) != fmt.Sprint(cmp.Or(c.err, "<nil>")) {
				t.Errorf("%s in %d spans: %v, want %s", name, spans, err, cmp.Or(c.err, "no error"))
			}
		}
	}
	for name, data := range inputs {
		for _, kind := range []string{"PCL", "CDT"} {
			t.Run(kind+"/"+name, func(t *testing.T) { checkSpansAgree(t, data, kind) })
		}
	}

	broken := errors.New("disk on fire")
	for body, want := range map[string]string{
		"G1\tN\t1\t0.5\nG2\tN\t1\tnot-a-num": "microarray: reading PCL: disk on fire",
		"G1\tN\t1\tbad\nG2\tN\t1\t1":         `microarray: PCL line 2 column 4: strconv.ParseFloat: parsing "bad": invalid syntax`,
		"G1\tN\t1\t1\nG1\tN\t1\t1\nG2":       `microarray: PCL line 3: duplicate gene ID "G1"`,
		"G1\tN\t1\t1\nG2\tN\t1\t1\n":         "microarray: reading PCL: disk on fire",
		"G1\tN\t1\t1\nG2\tN\t1\t1\nG1\tN\t1": "microarray: reading PCL: disk on fire", // the partial line is not read
	} {
		data := []byte("ID\tNAME\tGWEIGHT\te1\n" + body)
		for _, spans := range []int{1, 2, 3, len(data)} {
			if _, err := readSpans(&failingReader{data: data, err: broken}, "x", "PCL", spans); fmt.Sprint(err) != want {
				t.Errorf("a read error after %q, %d spans: %v, want %s", body, spans, err, want)
			}
		}
	}
	// A line of maxLine bytes or more is too long, "\r" and all.
	for _, c := range []struct {
		n        int
		end, err string
	}{
		{maxLine - 1, "\n", "<nil>"}, {maxLine - 1, "", "<nil>"}, {maxLine - 1, "\r\n", "microarray: reading PCL: bufio.Scanner: token too long"},
		{maxLine, "\n", "microarray: reading PCL: bufio.Scanner: token too long"}, {maxLine, "", "microarray: reading PCL: bufio.Scanner: token too long"},
	} {
		line := "G1\tN " + strings.Repeat("x", c.n-len("G1\tN \t1\t0.5")) + "\t1\t0.5"
		data := "ID\tNAME\tGWEIGHT\te1\nG0\tN\t1\t1\n" + line + c.end
		if _, err := readSpans(strings.NewReader(data), "x", "PCL", 2); fmt.Sprint(err) != c.err {
			t.Errorf("a %d-byte line ending %q: %v, want %s", len(line), c.end, err, c.err)
		}
	}
}

// endless is a reader of one line that never ends, counting what it gave.
type endless struct{ n int }

func (r *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	r.n += len(p)
	return len(p), nil
}

// TestReadPCLStopsAtLongLine pins that a line is read no further than
// bufio.Scanner's limit and one doubling of the buffer past it, however
// long it is.
func TestReadPCLStopsAtLongLine(t *testing.T) {
	for _, head := range []string{"", "ID\tNAME\tGWEIGHT\te1\nG1\tN\t1\t1\n"} {
		r := &endless{}
		_, err := ReadPCL(io.MultiReader(strings.NewReader(head), r), "endless")
		if !errors.Is(err, bufio.ErrTooLong) || r.n > 4*maxLine {
			t.Errorf("after %q, a line without end: %v after %d bytes, want bufio.ErrTooLong within %d", head, err, r.n, 4*maxLine)
		}
	}
}

// TestReadTableKeepsNoBuffer pins that a parsed table points into nothing
// of the buffer its file was read into: the next file read reuses it.
func TestReadTableKeepsNoBuffer(t *testing.T) {
	in := "GID\tID\tNAME\tGWEIGHT\te1\te2\nAID\t\t\t\tARRY0X\tARRY1X\nEWEIGHT\t\t\t\t2\t0.5\n" +
		"GENE0X\tG1\tN1 first gene\t1\t0.5\t-1\nGENE1X\tG2\tN2\t3\t\t1.25\n"
	c, err := ReadCDT(strings.NewReader(in), "kept")
	if err != nil {
		t.Fatal(err)
	}
	show := func() string {
		return fmt.Sprintf("%q %q %q %v %v", c.GIDs, c.AIDs, c.Dataset.Genes, c.Dataset.Data, c.Dataset.EWeights)
	}
	want := show()
	for range 20 {
		_, _ = ReadCDT(strings.NewReader(strings.Repeat("x\tx\n", len(in)/4)), "overwrite")
	}
	if got := show(); got != want {
		t.Errorf("a table changed when later files were read: %s, was %s", got, want)
	}
}
