package microarray

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// ReadPCL and ReadCDT share this row reader. Lines are bytes walked in place,
// and each gene's strings and cells are copied into one text arena and one
// []float64 per file, so a parsed dataset keeps none of its lines alive.

// maxLine bounds one line, the limit bufio.Scanner's 16 MiB buffer set.
const maxLine = 16 << 20

// lineReader splits a stream the way bufio.ScanLines does: a line loses its
// "\n" and one trailing "\r", and a last line without a newline still counts.
type lineReader struct {
	r    *bufio.Reader
	long []byte // a line longer than r's buffer, assembled
	n    int    // lines returned so far: the current line's number
}

// next returns the next line, valid until the following call, or io.EOF.
func (lr *lineReader) next() ([]byte, error) {
	line, err := lr.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.long = append(lr.long[:0], line...)
		for err == bufio.ErrBufferFull && len(lr.long) < maxLine {
			line, err = lr.r.ReadSlice('\n')
			lr.long = append(lr.long, line...)
		}
		line = lr.long
	}
	switch {
	case err == nil:
		line = line[:len(line)-1]
	case err == bufio.ErrBufferFull:
		return nil, bufio.ErrTooLong
	case err != io.EOF || len(line) == 0:
		return nil, err
	}
	if len(line) >= maxLine {
		return nil, bufio.ErrTooLong
	}
	lr.n++
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// table is a PCL or CDT file being read: the column layout its header gave,
// and the gene rows so far.
type table struct {
	kind                           string // "PCL" or "CDT", for messages
	lines                          lineReader
	gidCol, idCol, gwCol, expStart int // gidCol and gwCol are -1 when absent
	ds                             *Dataset
	aids                           []string

	text  []byte    // each gene's GID, ID, name and annotation, back to back
	ends  []int     // where each of a gene's four strings ends in text
	rowAt []int     // each gene's line number
	cells []float64 // each gene's values, one per experiment
	gw    []float64
}

// readTable reads a PCL file, or a CDT file when kind is "CDT": only a CDT
// has a GID column and an AID row.
func readTable(r io.Reader, name, kind string) (*CDT, error) {
	t := &table{kind: kind, lines: lineReader{r: bufio.NewReaderSize(r, 64<<10)}, gidCol: -1}
	line, err := t.lines.next()
	if err == io.EOF {
		return nil, fmt.Errorf("microarray: empty %s input", kind)
	}
	if err != nil {
		return nil, fmt.Errorf("microarray: reading %s header: %w", kind, err)
	}
	header := strings.Split(string(line), "\t")
	if kind == "CDT" && strings.EqualFold(strings.TrimSpace(header[0]), "GID") {
		t.gidCol, t.idCol = 0, 1
	}
	t.gwCol, t.expStart = t.idCol+2, t.idCol+3
	if len(header) < t.expStart {
		return nil, fmt.Errorf("microarray: %s header has %d columns, want >= %d", kind, len(header), t.expStart)
	}
	if !strings.EqualFold(strings.TrimSpace(header[t.gwCol]), "GWEIGHT") {
		t.expStart, t.gwCol = t.gwCol, -1 // tolerated, as Cluster 3.0 and TreeView do
	}
	experiments := header[t.expStart:]
	for i, h := range experiments {
		experiments[i] = strings.TrimSpace(h) // "exp\r" would not survive a write
	}
	t.ds = NewDataset(name, experiments)

	for {
		line, err := t.lines.next()
		if err == io.EOF {
			return t.finish()
		}
		if err != nil {
			err = fmt.Errorf("microarray: reading %s: %w", kind, err)
		} else if len(bytes.TrimSpace(line)) > 0 {
			err = t.row(line)
		}
		if err != nil {
			// The first error in line order wins: an earlier line may repeat an ID.
			if _, dup := t.index(string(t.text)); dup != nil {
				return nil, dup
			}
			return nil, err
		}
	}
}

// row reads one non-blank line: the AID row, the EWEIGHT row or a gene.
func (t *table) row(line []byte) error {
	nE := len(t.ds.Experiments)
	first, _ := cut(line)
	first = bytes.TrimSpace(first)
	aid := t.kind == "CDT" && bytes.EqualFold(first, []byte("AID"))
	if aid || bytes.EqualFold(first, []byte("EWEIGHT")) {
		if aid && t.aids != nil {
			return fmt.Errorf("microarray: CDT line %d: a second AID row", t.lines.n)
		} else if aid {
			t.aids = make([]string, nE)
		}
		fields := bytes.Split(line, []byte{'\t'}) // at most one AID row and a few EWEIGHT rows a file
		for i := range min(nE, max(0, len(fields)-t.expStart)) {
			if f := bytes.TrimSpace(fields[t.expStart+i]); aid {
				t.aids[i] = string(f)
			} else if w, err := parseFloat(f); err == nil {
				t.ds.EWeights[i] = w
			}
		}
		return nil
	}
	// A row carries every cell the header names, as Cluster 3.0 insists:
	// padding a short one would let a few bytes of input claim a whole
	// dense row. Cells beyond the header are ignored.
	want := t.expStart + nE
	if n := bytes.Count(line, []byte{'\t'}) + 1; n < want {
		return fmt.Errorf("microarray: %s line %d has %d columns, the header has %d", t.kind, t.lines.n, n, want)
	}
	var head [4][]byte // the fields before the first experiment
	rest := line
	for col := range t.expStart {
		head[col], rest = cut(rest)
	}
	t.cells = grow(t.cells, nE)
	for i := range nE {
		v, tail, err := cell(rest)
		if err != nil {
			return fmt.Errorf("microarray: %s line %d column %d: %w", t.kind, t.lines.n, t.expStart+i+1, err)
		}
		t.cells, rest = append(t.cells, v), tail
	}
	gw := 1.0
	if t.gwCol >= 0 {
		if w, err := parseFloat(bytes.TrimSpace(head[t.gwCol])); err == nil {
			gw = w
		}
	}
	var gid, ann []byte
	if t.gidCol >= 0 {
		gid = bytes.TrimSpace(head[t.gidCol])
	}
	// Convention: the NAME column is "NAME annotation text ...".
	name := bytes.TrimSpace(head[t.idCol+1])
	if sp := bytes.IndexByte(name, ' '); sp >= 0 {
		name, ann = name[:sp], bytes.TrimSpace(name[sp+1:])
	}
	t.ends = grow(t.ends, 4)
	for _, s := range [4][]byte{gid, bytes.TrimSpace(head[t.idCol]), name, ann} {
		t.text = append(grow(t.text, len(s)), s...)
		t.ends = append(t.ends, len(t.text))
	}
	t.rowAt = append(grow(t.rowAt, 1), t.lines.n)
	t.gw = append(grow(t.gw, 1), gw)
	return nil
}

// grow makes room for n more elements in s by doubling: append's 1.25x
// growth of large slices would copy a file's worth about five times.
func grow[E any](s []E, n int) []E {
	if len(s)+n > cap(s) {
		s = slices.Grow(s, max(n, len(s)))
	}
	return s
}

// cut splits line at its first tab; rest is nil when there is none.
func cut(line []byte) (field, rest []byte) {
	if i := bytes.IndexByte(line, '\t'); i >= 0 {
		return line[:i], line[i+1:]
	}
	return line, nil
}

// index maps each gene's ID, a substring of text, to its row. A repeated ID
// is an error at the line that repeats it.
func (t *table) index(text string) (map[string]int, error) {
	idx := make(map[string]int, len(t.rowAt))
	for g, line := range t.rowAt {
		id := text[t.ends[4*g]:t.ends[4*g+1]]
		if _, dup := idx[id]; dup {
			return nil, fmt.Errorf("microarray: %s line %d: microarray: duplicate gene ID %q", t.kind, line, id)
		}
		idx[id] = g
	}
	return idx, nil
}

// finish builds the dataset: strings are substrings of one copy of the text
// arena, and row g is cells[g*nE:(g+1)*nE] with cap == len, so appending to
// one row cannot write into the next.
func (t *table) finish() (*CDT, error) {
	text := string(t.text)
	idx, err := t.index(text)
	if err != nil {
		return nil, err
	}
	ds, n, nE := t.ds, len(t.rowAt), len(t.ds.Experiments)
	var gids []string
	if t.gidCol >= 0 {
		gids = make([]string, n)
	}
	ds.idIndex = idx
	if n > 0 {
		cells := slices.Clone(t.cells) // without append's spare capacity
		ds.Genes, ds.Data, ds.GWeights = make([]Gene, n), make([][]float64, n), slices.Clone(t.gw)
		at := 0
		for g := range n {
			e := t.ends[4*g : 4*g+4]
			if gids != nil {
				gids[g] = text[at:e[0]]
			}
			ds.Genes[g] = Gene{ID: text[e[0]:e[1]], Name: text[e[1]:e[2]], Annotation: text[e[2]:e[3]]}
			ds.Data[g] = cells[g*nE : (g+1)*nE : (g+1)*nE]
			at = e[3]
		}
	}
	return &CDT{Dataset: ds, GIDs: gids, AIDs: t.aids}, nil
}

// cell parses the cell line starts with and returns the line after its tab.
// Most cells are a bare number, parsed in place. Any other is trimmed; blank,
// NA and NaN in any case are Missing (no letter outside ASCII folds to n or
// a, so the ASCII test is all of strings.EqualFold's), and the rest goes to
// parseFloat.
func cell(line []byte) (float64, []byte, error) {
	if v, n := parseCell(line); n > 0 && (n == len(line) || line[n] == '\t') {
		return v, line[min(n+1, len(line)):], nil
	}
	f, rest := cut(line)
	b := bytes.TrimSpace(f)
	switch {
	case len(b) == 0,
		len(b) == 2 && b[0]|0x20 == 'n' && b[1]|0x20 == 'a',
		len(b) == 3 && b[0]|0x20 == 'n' && b[1]|0x20 == 'a' && b[2]|0x20 == 'n':
		return Missing, rest, nil
	}
	v, err := parseFloat(b)
	return v, rest, err
}

// parseFloat is strconv.ParseFloat(string(b), 64), by parseCell when it can.
func parseFloat(b []byte) (float64, error) {
	if v, n := parseCell(b); n > 0 && n == len(b) {
		return v, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// parseCell parses the number b starts with, [+-]digits[.digits], and
// returns it and the bytes it took, 0 when b does not start with one it can
// parse exactly. With at most 19 digits, k of them after the point, and a
// mantissa m below 2^53, m and 1e(k) are exact float64s and m/1e(k) is one
// correctly rounded division: strconv's own exact path, so the bits are
// ParseFloat's.
func parseCell(b []byte) (float64, int) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		i, neg = 1, b[0] == '-'
	}
	var m uint64
	at := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	digits, frac := i-at, 0
	if i < len(b) && b[i] == '.' {
		at = i + 1
		for i = at; i < len(b) && b[i]-'0' <= 9; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		frac = i - at
	}
	if digits+frac == 0 || digits+frac > 19 || m >= 1<<53 { // 19 digits cannot overflow m
		return 0, 0
	}
	v := float64(m)
	if frac > 0 {
		v /= math.Pow10(frac)
	}
	if neg {
		v = -v
	}
	return v, i
}
