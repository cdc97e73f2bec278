package microarray

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
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
