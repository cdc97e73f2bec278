package microarray

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ReadPCL and ReadCDT share this row reader. A file is read into memory and
// the body after its header is cut into line-aligned spans, parsed
// concurrently: each span's gene strings go into a text arena of its own,
// its cells straight into their rows of the dataset's one cells array. A
// serial join copies the arenas into one string, so a parsed dataset keeps
// none of its lines alive.

// maxLine bounds one line, the limit bufio.Scanner's 16 MiB buffer set.
const maxLine = 16 << 20

// minSpan is the fewest body bytes worth a worker of their own: a smaller
// body, or GOMAXPROCS 1, is one span.
const minSpan = 64 << 10

// buffers recycles readAll's buffers. A compendium's files are read one
// after another and each buffer is garbage once its file is parsed; without
// reuse, a boot allocates its files' bytes a second time, and the collector
// runs that much more often under the engine build that follows.
var buffers sync.Pool // of *[]byte

// table is the column layout a PCL or CDT header gave.
type table struct {
	kind                           string // "PCL" or "CDT", for messages
	gidCol, idCol, gwCol, expStart int    // gidCol and gwCol are -1 when absent
	nE                             int    // experiments
}

// part is one span of the body and what parsing it gave: its genes' strings,
// line numbers and weights, its AID and EWEIGHT rows, and the error that
// stopped it.
type part struct {
	span         []byte
	lines, first int // the span's lines, and the number of its first
	slots, slot  int // the rows its gene lines can take, and the first of them

	text    []byte    // each gene's GID, ID, name and annotation, back to back
	ends    []int     // where each of a gene's four strings ends in text
	rowAt   []int     // each gene's line number
	gw      []float64 // each gene's weight
	cells   []float64 // the span's rows of the cells array
	special []special // AID and EWEIGHT rows, for the join to apply in line order
	err     error
}

// special is an AID or EWEIGHT row and its line number.
type special struct {
	n    int
	aid  bool
	line []byte
}

// A body line is blank, the AID row, an EWEIGHT row or a gene.
const (
	blankRow = iota
	aidRow
	eweightRow
	geneRow
)

// readTable reads a PCL file, or a CDT file when kind is "CDT": only a CDT
// has a GID column and an AID row.
func readTable(r io.Reader, name, kind string) (*CDT, error) {
	return readSpans(r, name, kind, 0)
}

// readSpans is readTable with the body cut into at most spans spans, or,
// when spans is 0, into one span per GOMAXPROCS, each of minSpan bytes or
// more. Every span count gives the same dataset, or the same error.
func readSpans(r io.Reader, name, kind string, spans int) (*CDT, error) {
	data, tail := readAll(r)
	switch {
	case len(data) == 0 && tail == nil:
		return nil, fmt.Errorf("microarray: empty %s input", kind)
	case len(data) == 0:
		return nil, fmt.Errorf("microarray: reading %s header: %w", kind, tail)
	}
	line, body := nextLine(data)
	if len(line) >= maxLine {
		return nil, fmt.Errorf("microarray: reading %s header: %w", kind, bufio.ErrTooLong)
	}
	t := &table{kind: kind, gidCol: -1}
	header := strings.Split(string(trimCR(line)), "\t")
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
	ds := NewDataset(name, experiments)
	t.nE = len(experiments)

	if spans == 0 {
		spans = max(1, min(runtime.GOMAXPROCS(0), len(body)/minSpan))
	}
	parts := split(body, spans)
	parallel(len(parts), func(i int) { t.count(&parts[i]) })
	first, rows := 2, 0 // the header is line 1
	for i := range parts {
		p := &parts[i]
		p.first, p.slot = first, rows
		first, rows = first+p.lines, rows+p.slots
	}
	var cells []float64
	if rows*t.nE > 0 {
		cells = make([]float64, rows*t.nE)
	}
	parallel(len(parts), func(i int) {
		p := &parts[i]
		p.cells = cells[p.slot*t.nE : (p.slot+p.slots)*t.nE]
		t.parse(p)
	})
	c, err := t.join(ds, parts, cells, tail)
	buffers.Put(&data) // nothing join returns points into data
	return c, err
}

// readAll reads r to its end into one buffer, sized from r's Len or Stat
// when it has one, and reused from an earlier file when it is big enough. A read that stops early — at a read error, or at a line
// of maxLine bytes or more, where bufio.Scanner stopped — leaves the buffer
// at its last whole line, and tail says why.
func readAll(r io.Reader) (data []byte, tail error) {
	size := 64 << 10
	switch s := r.(type) {
	case interface{ Len() int }:
		size = s.Len() + 1 // a full buffer would need another Read to see EOF
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size()) + 1
		}
	}
	var buf []byte
	if p, ok := buffers.Get().(*[]byte); ok && cap(*p) >= size {
		buf = (*p)[:0]
	} else {
		buf = make([]byte, 0, size)
	}
	whole := 0 // where the unfinished line starts
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, cap(buf))
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		if i := bytes.LastIndexByte(buf[len(buf):len(buf)+n], '\n'); i >= 0 {
			whole = len(buf) + i + 1
		}
		buf = buf[:len(buf)+n]
		switch {
		case len(buf)-whole >= maxLine:
			return buf[:whole], bufio.ErrTooLong
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return buf[:whole], err
		}
	}
}

// nextLine splits b at its first newline, which neither half keeps; a last
// line without one still counts.
func nextLine(b []byte) (line, rest []byte) {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return b[:i], b[i+1:]
	}
	return b, nil
}

// trimCR drops one trailing "\r", as bufio.ScanLines does.
func trimCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// split cuts body into at most k spans of whole lines.
func split(body []byte, k int) []part {
	var parts []part
	at := 0
	for i := 1; i < k && at < len(body); i++ {
		end := int(int64(len(body)) * int64(i) / int64(k))
		if end <= at {
			continue
		}
		if body[end-1] != '\n' {
			nl := bytes.IndexByte(body[end:], '\n')
			if nl < 0 {
				break
			}
			end += nl + 1
		}
		parts = append(parts, part{span: body[at:end]})
		at = end
	}
	if at < len(body) {
		parts = append(parts, part{span: body[at:]})
	}
	return parts
}

// parallel calls f(0), ..., f(n-1) on up to GOMAXPROCS goroutines, the
// caller's among them.
func parallel(n int, f func(int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			f(i)
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// rowKind says what a body line is, by its first field.
func (t *table) rowKind(line []byte) int {
	if len(bytes.TrimSpace(line)) == 0 {
		return blankRow
	}
	first, _ := cut(line)
	first = bytes.TrimSpace(first)
	switch {
	case t.kind == "CDT" && bytes.EqualFold(first, []byte("AID")):
		return aidRow
	case bytes.EqualFold(first, []byte("EWEIGHT")):
		return eweightRow
	}
	return geneRow
}

// count finds a span's lines and the rows its gene lines can take. A gene
// line shorter than a gene row's tabs takes none: gene refuses it. So the
// rows are exactly the genes of a file that parses, and at most its bytes.
func (t *table) count(p *part) {
	for rest := p.span; len(rest) > 0; {
		var line []byte
		line, rest = nextLine(rest)
		p.lines++
		if len(line)+1 >= t.expStart+t.nE && t.rowKind(trimCR(line)) == geneRow {
			p.slots++
		}
	}
	p.ends, p.rowAt, p.gw = make([]int, 0, 4*p.slots), make([]int, 0, p.slots), make([]float64, 0, p.slots)
}

// parse reads a span's lines up to its first error.
func (t *table) parse(p *part) {
	n := p.first
	for rest := p.span; len(rest) > 0; n++ {
		var line []byte
		line, rest = nextLine(rest)
		if len(line) >= maxLine {
			p.err = fmt.Errorf("microarray: reading %s: %w", t.kind, bufio.ErrTooLong)
			return
		}
		line = trimCR(line)
		switch kind := t.rowKind(line); kind {
		case geneRow:
			if p.err = t.gene(p, line, n); p.err != nil {
				return
			}
		case aidRow, eweightRow:
			p.special = append(p.special, special{n: n, aid: kind == aidRow, line: line})
		}
	}
}

// gene reads gene line n into the span's next row.
func (t *table) gene(p *part, line []byte, n int) error {
	nE := t.nE
	// A row carries every cell the header names, as Cluster 3.0 insists:
	// padding a short one would let a few bytes of input claim a whole
	// dense row. Cells beyond the header are ignored.
	want := t.expStart + nE
	if c := bytes.Count(line, []byte{'\t'}) + 1; c < want {
		return fmt.Errorf("microarray: %s line %d has %d columns, the header has %d", t.kind, n, c, want)
	}
	var head [4][]byte // the fields before the first experiment
	rest := line
	for col := range t.expStart {
		head[col], rest = cut(rest)
	}
	g := len(p.rowAt)
	row := p.cells[g*nE : (g+1)*nE]
	for i := range row {
		v, tail, err := cell(rest)
		if err != nil {
			return fmt.Errorf("microarray: %s line %d column %d: %w", t.kind, n, t.expStart+i+1, err)
		}
		row[i], rest = v, tail
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
	for _, s := range [4][]byte{gid, bytes.TrimSpace(head[t.idCol]), name, ann} {
		p.text = append(grow(p.text, len(s)), s...)
		p.ends = append(p.ends, len(p.text))
	}
	p.rowAt = append(p.rowAt, n)
	p.gw = append(p.gw, gw)
	return nil
}

// grow makes room for n more elements in s by doubling: append's 1.25x
// growth of large slices would copy a span's worth about five times.
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

// weights applies an AID or EWEIGHT row; aids is nil until the AID row.
func (t *table) weights(ds *Dataset, aids []string, s special) ([]string, error) {
	if s.aid && aids != nil {
		return nil, fmt.Errorf("microarray: CDT line %d: a second AID row", s.n)
	} else if s.aid {
		aids = make([]string, t.nE)
	}
	fields := bytes.Split(s.line, []byte{'\t'}) // at most one AID row and a few EWEIGHT rows a file
	for i := range min(t.nE, max(0, len(fields)-t.expStart)) {
		if f := bytes.TrimSpace(fields[t.expStart+i]); s.aid {
			aids[i] = string(f)
		} else if w, err := parseFloat(f); err == nil {
			ds.EWeights[i] = w
		}
	}
	return aids, nil
}

// join builds the dataset from the parsed spans, in line order. The first
// error in line order wins: a span's own, a second AID row among the AID
// and EWEIGHT rows applied here, the read's tail, or, before any of them,
// a repeated ID. Strings are substrings of one copy of the spans' text
// arenas, and row g is cells[g*nE:(g+1)*nE] with cap == len, so appending
// to one row cannot write into the next.
func (t *table) join(ds *Dataset, parts []part, cells []float64, tail error) (*CDT, error) {
	var aids []string
	var stop error
	upTo := math.MaxInt // a repeated ID counts on lines before this one
scan:
	for i := range parts {
		for _, s := range parts[i].special {
			if aids, stop = t.weights(ds, aids, s); stop != nil {
				parts, upTo = parts[:i+1], s.n
				break scan
			}
		}
		if stop = parts[i].err; stop != nil {
			parts = parts[:i+1]
			break
		}
	}
	if stop == nil && tail != nil {
		stop = fmt.Errorf("microarray: reading %s: %w", t.kind, tail)
	}

	size, n := 0, 0
	for _, p := range parts {
		size, n = size+len(p.text), n+len(p.rowAt)
	}
	var b strings.Builder
	b.Grow(size)
	for _, p := range parts {
		b.Write(p.text)
	}
	text := b.String()
	idx := make(map[string]int, n)
	base, g := 0, 0
	for _, p := range parts {
		s := text[base : base+len(p.text)]
		for k, line := range p.rowAt {
			if line >= upTo {
				break
			}
			id := s[p.ends[4*k]:p.ends[4*k+1]]
			if _, dup := idx[id]; dup {
				return nil, fmt.Errorf("microarray: %s line %d: duplicate gene ID %q", t.kind, line, id)
			}
			idx[id], g = g, g+1
		}
		base += len(p.text)
	}
	if stop != nil {
		return nil, stop
	}

	var gids []string
	if t.gidCol >= 0 {
		gids = make([]string, n)
	}
	ds.idIndex = idx
	if n > 0 {
		nE := t.nE
		ds.Genes, ds.Data, ds.GWeights = make([]Gene, n), make([][]float64, n), make([]float64, 0, n)
		base, g := 0, 0
		for _, p := range parts {
			s, at := text[base:base+len(p.text)], 0
			for k := range p.rowAt {
				e := p.ends[4*k : 4*k+4]
				if gids != nil {
					gids[g] = s[at:e[0]]
				}
				ds.Genes[g] = Gene{ID: s[e[0]:e[1]], Name: s[e[1]:e[2]], Annotation: s[e[2]:e[3]]}
				ds.Data[g] = cells[g*nE : (g+1)*nE : (g+1)*nE]
				at, g = e[3], g+1
			}
			ds.GWeights = append(ds.GWeights, p.gw...)
			base += len(p.text)
		}
	}
	return &CDT{Dataset: ds, GIDs: gids, AIDs: aids}, nil
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
