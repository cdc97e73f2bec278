package spell

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"

	"forestview/internal/wire"
)

// The Partial wire frame. A Partial crosses the shard hop as one
// little-endian frame, a part of the shard's answer body
// (shard.SearchAnswer), with no reflection on either side:
//
//	section        encoding                                   length check
//	head           "SPLP", 0x03                               5 bytes, both equal
//	kind           u8: 0 coherence-weighted, 1 uniform         at most 1
//	counts         nq, nd, ng: u32 each                       1·nq + 25·nd + 34·ng + 32 ≤ bytes left
//	query          string column of nq
//	dataset names  string column of nd
//	dataset rows   nd × (index i64, coherence f64, present i64)   24·nd ≤ bytes left
//	gene IDs       string column of ng
//	gene names     string column of ng
//	Sums           ng × f64 each, four columns in Partial.Sums  8·ng ≤ bytes left, four
//	               order (raw bits: NaN payloads, ±0 and        times; then no byte may
//	               subnormals survive)                          be left
//
// The string column and its checks are internal/wire's. The counts check is
// what bounds allocation: every string costs at least one table byte, every
// dataset 25 bytes, every gene 34, so a frame cannot make the decoder
// allocate more than a small multiple of its own size whatever its length
// fields claim. Decoded strings are substrings of one copy of each blob (the
// coordinator reuses the body a frame arrives in, so the copy is required
// anyway): four string allocations per frame instead of one per gene, and the
// reason Merge clones what it returns.
//
// Version 1 carried both accumulator pairs as four float columns and no kind
// byte; version 2 carried Sum and Cnt as one column each, not on the grid. A
// peer that still speaks either fails the version check here, which the
// scatter treats as a failed attempt; testdata/fuzz keeps their frames as
// inputs that must be rejected.
const (
	frameHead = "SPLP\x03"
	// frameMinString, frameMinDataset and frameMinGene are the fewest frame
	// bytes one query string, one dataset and one gene can occupy;
	// frameColumns is the number of string columns, each with 8 bytes of
	// length fields.
	frameMinString  = 1
	frameMinDataset = 1 + 24
	frameMinGene    = 2 + 32
	frameColumns    = 4
)

// MarshalBinary encodes p as one frame (see the layout above), sized
// exactly. encoding/gob calls it for a Partial it is given, by value or by
// pointer, which is why the receiver is a value.
func (p Partial) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// AppendBinary appends p's frame to b, growing b at most once: a shard
// writes every part of its answer straight into one response buffer.
func (p Partial) AppendBinary(b []byte) ([]byte, error) { return p.appendFrame(b, nil) }

// appendFrame is AppendBinary. genes, when not nil, is the encoding of p's
// gene ID and name columns, appended as it is (Engine.AppendPartial).
func (p Partial) appendFrame(b, genes []byte) ([]byte, error) {
	if err := p.checkColumns(); err != nil {
		return nil, err
	}
	dsNames := make([]string, len(p.Datasets))
	for i, d := range p.Datasets {
		dsNames[i] = d.Name
	}
	size := uint64(len(frameHead) + 1 + 3*4 + 24*len(p.Datasets) + len(p.Sums)*8*len(p.IDs) + len(genes))
	cols := [][]string{p.Query, dsNames, p.IDs, p.Names}
	if genes != nil {
		cols = cols[:2]
	}
	for _, col := range cols {
		// A table under 4 GiB also keeps the row counts within their u32s:
		// every string takes at least one table byte.
		table, blob := wire.ColumnSize(col)
		if table > math.MaxUint32 || blob > math.MaxUint32 {
			return nil, errors.New("spell: partial string column exceeds the frame's 4 GiB limit")
		}
		size += 8 + table + blob
	}

	if uint64(cap(b)-len(b)) < size {
		b = append(make([]byte, 0, uint64(len(b))+size), b...)
	}
	b = append(b, frameHead...)
	b = append(b, 0)
	if p.Uniform {
		b[len(b)-1] = 1
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Query)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Datasets)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.IDs)))
	b = wire.AppendColumn(b, p.Query)
	b = wire.AppendColumn(b, dsNames)
	for _, d := range p.Datasets {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(d.Index)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d.Coherence))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(d.Present)))
	}
	if genes != nil {
		b = append(b, genes...)
	} else {
		b = wire.AppendColumn(wire.AppendColumn(b, p.IDs), p.Names)
	}
	for _, col := range p.Sums {
		for _, v := range col {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b, nil
}

// UnmarshalBinary decodes one frame into p, replacing its contents. Any
// malformed frame — wrong magic or version, a length field larger than the
// bytes left, a column whose lengths disagree, trailing bytes — is an error
// and leaves p untouched; it never panics and never allocates beyond a small
// multiple of len(data). data is not retained.
func (p *Partial) UnmarshalBinary(data []byte) error { return p.UnmarshalShared(data, nil) }

// UnmarshalShared is UnmarshalBinary, with p's gene ID and name columns
// taken from genes when it has decoded the same bytes before (nil: never).
// Columns so shared are read-only, like every Partial's.
func (p *Partial) UnmarshalShared(data []byte, genes *GeneColumns) error {
	r := wire.Open(data, "spell: partial frame", frameHead)
	uniform := r.Byte(1) == 1
	nq, nd, ng := uint64(r.U32()), uint64(r.U32()), uint64(r.U32())
	if !r.Need(frameMinString*nq + frameMinDataset*nd + frameMinGene*ng + 8*frameColumns) {
		return r.Close()
	}
	out := Partial{Query: r.Column(int(nq)), Datasets: make([]PartialDataset, nd), Uniform: uniform}
	for i, name := range r.Column(int(nd)) {
		index, coherence, present := int64(r.U64()), math.Float64frombits(r.U64()), int64(r.U64())
		out.Datasets[i] = PartialDataset{Index: int(index), Name: name, Coherence: coherence, Present: int(present)}
	}
	out.IDs, out.Names, out.rows = genes.columns(&r, int(ng))
	out.rowsOf = out.IDs
	cells := uint64(len(out.Sums)) * ng
	floats := r.Take(8 * cells)
	if err := r.Close(); err != nil {
		return err
	}
	// One allocation cut four ways.
	vals := make([]float64, cells)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(floats[8*i:]))
	}
	for k := range out.Sums {
		out.Sums[k] = vals[uint64(k)*ng : uint64(k+1)*ng : uint64(k+1)*ng]
	}
	*p = out
	return nil
}

// GeneColumns lets the frames a coordinator decodes share their gene ID and
// name columns: a shard lists the same genes in every answer until it
// reloads, and the shards of one compendium list the same genes as each
// other, which also keeps Merge on its no-map path. It keeps the last few
// column pairs it decoded, with an index of each ID column for Merge to find
// the query genes by, and compares each frame's bytes with theirs, in full.
// Safe for concurrent use; the zero value is ready.
type GeneColumns struct {
	mu   sync.Mutex
	seen [4]geneColumns
	next int
}

type geneColumns struct {
	frame      string // the pair's bytes in the frame
	ids, names []string
	rows       map[string]int // ids' index, nil when an ID repeats
}

// columns reads the gene ID and name columns of n strings each, from m's
// copy when m holds one decoded from the same bytes, and that copy's index
// (nil without m).
func (m *GeneColumns) columns(r *wire.Reader, n int) (ids, names []string, rows map[string]int) {
	if m == nil {
		return r.Column(n), r.Column(n), nil
	}
	pair := r.PeekColumns(2)
	m.mu.Lock()
	for _, c := range m.seen {
		if len(c.ids) == n && c.frame == string(pair) {
			m.mu.Unlock()
			r.Take(uint64(len(pair)))
			return c.ids, c.names, c.rows
		}
	}
	m.mu.Unlock()
	if ids, names = r.Column(n), r.Column(n); r.Err() == nil {
		rows = make(map[string]int, n)
		for i, id := range ids {
			rows[id] = i
		}
		if len(rows) < n {
			rows = nil
		}
		m.mu.Lock()
		m.seen[m.next] = geneColumns{string(pair), ids, names, rows}
		m.next = (m.next + 1) % len(m.seen)
		m.mu.Unlock()
	}
	return ids, names, rows
}
