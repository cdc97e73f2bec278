package spell

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"forestview/internal/wire"
)

// The Partial wire frame. A Partial crosses the shard hop as one
// little-endian frame, a part of the shard's answer body
// (shard.SearchAnswer), with no reflection on either side:
//
//	section        encoding                                   length check
//	head           "SPLP", 0x04                               5 bytes, both equal
//	kind           u8: 0 coherence-weighted, 1 uniform         at most 1
//	counts         nq, nd, ng: u32 each                       1·nq + 25·nd + 16 ≤ bytes left
//	query          string column of nq
//	dataset names  string column of nd
//	dataset rows   nd × (index i64, coherence f64, present i64)   24·nd ≤ bytes left
//	genes          u8 0: the gene ID and the gene name           at most 1; with 0,
//	               column, ng strings each;                     2·ng + 16 ≤ bytes left;
//	               u8 1: the SHA-256 of those two columns'      with 1, ng is the
//	               bytes, a pair the reader holds (32 bytes)    held pair's length
//	Sums           four columns in Partial.Sums order, each   each column's bytes ≤
//	               u8 0: ng × f64; u8 1 (ng > 0): one f64,    bytes left; then no
//	               every gene's value (raw bits: NaN          byte may be left
//	               payloads, ±0 and subnormals survive)
//
// The string column and its checks are internal/wire's. A column whose ng
// values have one bit pattern is written as that value: every gene's count
// column is one number when every gene scored in every dataset scanned, the
// usual case. The gene columns are left out when the request named their
// digest (GenesDigest) as a pair the coordinator holds, which a shard's
// every answer lists until it reloads.
//
// What bounds allocation: every string costs at least one table byte and
// every dataset 25 bytes, so neither count can claim more than the frame
// holds; ng is at most half the bytes left of a frame that carries its gene
// columns, and exactly the length of the held pair a frame names. So a frame
// of L bytes naming a held pair of H genes cannot make the decoder allocate
// more than 40·L + 32·H bytes, whatever its length fields claim (a carried
// gene costs two frame bytes and 64 decoded: two string headers, four
// floats). Decoded strings are substrings of one copy of each blob (the
// coordinator reuses the body a frame arrives in, so the copy is required
// anyway): four string allocations per frame instead of one per gene, and
// the reason Merge clones what it returns.
//
// Version 1 carried both accumulator pairs as four float columns and no kind
// byte; version 2 carried Sum and Cnt as one column each, not on the grid;
// version 3 always carried the gene columns and every float. A peer that
// still speaks one of them fails the version check here, which the scatter
// treats as a failed attempt; testdata/fuzz keeps their frames as inputs
// that must be rejected.
const (
	frameHead = "SPLP\x04"
	// frameMinString and frameMinDataset are the fewest frame bytes one
	// query string and one dataset can occupy; a carried gene takes two,
	// one table byte a column. Every string column has 8 bytes of lengths.
	frameMinString  = 1
	frameMinDataset = 1 + 24
	frameMinGene    = 2
	frameColumnHead = 8
)

// Tags of a frame's gene section and of each of its float columns.
const (
	genesCarried = 0 // the ID and name columns follow
	genesHeld    = 1 // their digest follows

	floatsEach = 0 // one value a gene
	floatsOne  = 1 // one value, every gene's
)

// GenesDigest names a gene ID and name column pair: the SHA-256 of the two
// columns' bytes as a frame carries them.
type GenesDigest [sha256.Size]byte

// MarshalBinary encodes p as one frame (see the layout above), sized
// exactly. encoding/gob calls it for a Partial it is given, by value or by
// pointer, which is why the receiver is a value.
func (p Partial) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// AppendBinary appends p's frame, gene columns carried, to b, growing b at
// most once: a shard writes every part of its answer straight into one
// response buffer.
func (p Partial) AppendBinary(b []byte) ([]byte, error) { return p.appendFrame(b, nil, nil) }

// appendFrame is AppendBinary. genes, when not nil, is the encoding of p's
// gene ID and name columns, appended as it is, and held, when not nil, is
// their digest, appended instead of them (Engine.AppendPartial).
func (p Partial) appendFrame(b, genes []byte, held *GenesDigest) ([]byte, error) {
	if err := p.checkColumns(); err != nil {
		return nil, err
	}
	dsNames := make([]string, len(p.Datasets))
	for i, d := range p.Datasets {
		dsNames[i] = d.Name
	}
	var one [len(p.Sums)]bool // which float columns cross as one value
	size := uint64(len(frameHead) + 1 + 3*4 + 24*len(p.Datasets) + 1 + len(genes) + len(p.Sums))
	for k, col := range p.Sums {
		if one[k] = sameBits(col); one[k] {
			size += 8
		} else {
			size += 8 * uint64(len(col))
		}
	}
	cols := [][]string{p.Query, dsNames, p.IDs, p.Names}
	switch {
	case held != nil:
		cols, size = cols[:2], size+uint64(len(held))
	case genes != nil:
		cols = cols[:2]
	}
	for _, col := range cols {
		// A table under 4 GiB also keeps the row counts within their u32s:
		// every string takes at least one table byte.
		table, blob := wire.ColumnSize(col)
		if table > math.MaxUint32 || blob > math.MaxUint32 {
			return nil, errors.New("spell: partial string column exceeds the frame's 4 GiB limit")
		}
		size += frameColumnHead + table + blob
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
	switch {
	case held != nil:
		b = append(append(b, genesHeld), held[:]...)
	case genes != nil:
		b = append(append(b, genesCarried), genes...)
	default:
		b = wire.AppendColumn(wire.AppendColumn(append(b, genesCarried), p.IDs), p.Names)
	}
	for k, col := range p.Sums {
		if one[k] {
			b = binary.LittleEndian.AppendUint64(append(b, floatsOne), math.Float64bits(col[0]))
			continue
		}
		b = append(b, floatsEach)
		for _, v := range col {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b, nil
}

// sameBits reports whether col has at least one value and all of its
// values have one bit pattern.
func sameBits(col []float64) bool {
	if len(col) == 0 {
		return false
	}
	v := math.Float64bits(col[0])
	for _, x := range col[1:] {
		if math.Float64bits(x) != v {
			return false
		}
	}
	return true
}

// UnmarshalBinary decodes one frame into p, replacing its contents. Any
// malformed frame — wrong magic or version, a length field larger than the
// bytes left, a column whose lengths disagree, a frame naming its gene
// columns by digest, trailing bytes — is an error and leaves p untouched; it
// never panics and never allocates beyond a small multiple of len(data).
// data is not retained.
func (p *Partial) UnmarshalBinary(data []byte) error { return p.UnmarshalShared(data, nil) }

// UnmarshalShared is UnmarshalBinary for a reader that holds gene columns:
// p's gene ID and name columns are held's copy when the frame names held's
// digest or carries bytes held has decoded before, and otherwise decoded and
// kept by held's GeneColumns for later frames (held nil: neither). Columns
// so shared are read-only, like every Partial's. p's accumulator columns
// come from the pool: its owner releases them (Partial.Release).
func (p *Partial) UnmarshalShared(data []byte, held *HeldGenes) error {
	r := wire.Open(data, "spell: partial frame", frameHead)
	uniform := r.Byte(1) == 1
	nq, nd, ng := uint64(r.U32()), uint64(r.U32()), uint64(r.U32())
	if !r.Need(frameMinString*nq + frameMinDataset*nd + 2*frameColumnHead) {
		return r.Close()
	}
	out := Partial{Query: r.Column(int(nq)), Datasets: make([]PartialDataset, nd), Uniform: uniform}
	for i, name := range r.Column(int(nd)) {
		index, coherence, present := int64(r.U64()), math.Float64frombits(r.U64()), int64(r.U64())
		out.Datasets[i] = PartialDataset{Index: int(index), Name: name, Coherence: coherence, Present: int(present)}
	}
	switch r.Byte(1) {
	case genesCarried:
		if r.Need(frameMinGene*ng + 2*frameColumnHead) {
			out.IDs, out.Names, out.rows = held.carried(&r, int(ng))
		}
	case genesHeld:
		out.IDs, out.Names, out.rows = held.named(&r, ng)
	}
	out.rowsOf = out.IDs
	// The float columns' lengths are checked before the buffer is taken.
	probe := r
	for range out.Sums {
		probe.Take(floatBytes(&probe, ng))
	}
	if err := probe.Close(); err != nil {
		return err
	}
	sums, buf := pooledColumns(int(ng), false)
	for _, col := range sums {
		raw := r.Take(floatBytes(&r, ng))
		if uint64(len(raw)) == 8*ng {
			for i := range col {
				col[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
			continue
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw))
		for i := range col {
			col[i] = v
		}
	}
	out.Sums, out.pool = sums, buf
	*p = out
	return nil
}

// floatBytes reads a float column's tag and returns the number of bytes of
// values that follow it: one value, or one a gene. A column of no genes has
// no value to give them all.
func floatBytes(r *wire.Reader, ng uint64) uint64 {
	if r.Byte(floatsOne) == floatsEach {
		return 8 * ng
	}
	if ng == 0 {
		r.Fail(errors.New("spell: partial frame gives one value to a column of no genes"))
		return 0
	}
	return 8
}

// GeneColumns keeps the gene ID and name column pairs a coordinator has
// decoded, by digest: a shard lists the same genes in every answer until it
// reloads, and the shards of one compendium list the same genes as each
// other, which also keeps Merge on its no-map path. It keeps the last few
// pairs, each with an index of its ID column for Merge to find the query
// genes by. A request names the digests held (Held) and its answer's frames
// name one of them instead of carrying the pair; a frame that carries a pair
// is compared with the held pairs' bytes, in full, before it is decoded
// again. Safe for concurrent use; the zero value is ready.
type GeneColumns struct {
	mu   sync.Mutex
	seen [4]*geneColumns
	next int
}

type geneColumns struct {
	digest     GenesDigest
	frame      string // the pair's bytes in a frame
	ids, names []string
	rows       map[string]int // ids' index, nil when an ID repeats
}

// HeldGenes is what a GeneColumns held when a request named its digests:
// the answer is decoded against it, so a pair the request named is there
// however many new pairs the GeneColumns took in meanwhile.
type HeldGenes struct {
	m    *GeneColumns
	seen [4]*geneColumns
}

// Held returns what m holds now.
func (m *GeneColumns) Held() *HeldGenes {
	m.mu.Lock()
	defer m.mu.Unlock()
	return &HeldGenes{m: m, seen: m.seen}
}

// Digests lists the digests of the pairs h holds, for a request to name.
func (h *HeldGenes) Digests() []GenesDigest {
	var out []GenesDigest
	for _, c := range h.seen {
		if c != nil {
			out = append(out, c.digest)
		}
	}
	return out
}

// named reads a digest and returns the pair of n genes h holds under it,
// failing r when h holds none.
func (h *HeldGenes) named(r *wire.Reader, n uint64) (ids, names []string, rows map[string]int) {
	d := r.Take(sha256.Size)
	if h != nil && d != nil {
		for _, c := range h.seen {
			if c != nil && c.digest == GenesDigest(d) {
				if uint64(len(c.ids)) != n {
					r.Fail(fmt.Errorf("spell: partial frame names a held gene pair of %d genes as %d", len(c.ids), n))
					return nil, nil, nil
				}
				return c.ids, c.names, c.rows
			}
		}
	}
	if d != nil {
		r.Fail(errors.New("spell: partial frame names a gene pair this reader does not hold"))
	}
	return nil, nil, nil
}

// carried reads the gene ID and name columns of n strings each, from the
// copy h's GeneColumns holds when it has decoded the same bytes before, and
// that copy's index (nil without h). A pair decoded afresh joins the
// GeneColumns.
func (h *HeldGenes) carried(r *wire.Reader, n int) (ids, names []string, rows map[string]int) {
	if h == nil {
		return r.Column(n), r.Column(n), nil
	}
	pair := r.PeekColumns(2)
	if c := h.m.decoded(pair, n); c != nil {
		r.Take(uint64(len(pair)))
		return c.ids, c.names, c.rows
	}
	if ids, names = r.Column(n), r.Column(n); r.Err() == nil {
		rows = make(map[string]int, n)
		for i, id := range ids {
			rows[id] = i
		}
		if len(rows) < n {
			rows = nil
		}
		h.m.keep(&geneColumns{sha256.Sum256(pair), string(pair), ids, names, rows})
	}
	return ids, names, rows
}

// decoded returns the pair of n genes m holds decoded from the bytes pair,
// nil when it holds none.
func (m *GeneColumns) decoded(pair []byte, n int) *geneColumns {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.seen {
		if c != nil && len(c.ids) == n && c.frame == string(pair) {
			return c
		}
	}
	return nil
}

// keep adds c to the pairs m holds, in place of the oldest, unless m holds
// its digest already.
func (m *GeneColumns) keep(c *geneColumns) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, have := range m.seen {
		if have != nil && have.digest == c.digest {
			return
		}
	}
	m.seen[m.next] = c
	m.next = (m.next + 1) % len(m.seen)
}
