package spell

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// The Partial wire frame. A Partial crosses the shard hop as one
// little-endian frame, a part of the shard's answer body
// (shard.SearchAnswer), with no reflection on either side:
//
//	section        encoding                                   length check
//	magic+version  "SPLP", 0x02                               5 bytes, both equal
//	kind           u8: 0 coherence-weighted, 1 uniform         at most 1
//	counts         nq, nd, ng: u32 each                       1·nq + 25·nd + 18·ng + 32 ≤ bytes left
//	query          string column of nq
//	dataset names  string column of nd
//	dataset rows   nd × (index i64, coherence f64, present i64)   24·nd ≤ bytes left
//	gene IDs       string column of ng
//	gene names     string column of ng
//	Sum, Cnt       ng × f64 each (raw bits: NaN payloads, ±0       8·ng ≤ bytes left, twice;
//	               and subnormals survive)                         then no byte may be left
//
// A string column of n is: table length u32, blob length u32, a table of n
// uvarint string lengths, and one blob of all the strings' bytes. Both
// lengths must fit in the bytes left, the table must hold exactly n lengths,
// and they must sum to the blob length.
//
// The counts check is what bounds allocation: every string costs at least
// one table byte, every dataset 25 bytes, every gene 18, so a frame cannot
// make the decoder allocate more than a small multiple of its own size
// whatever its length fields claim. Decoded strings are substrings of one
// copy of each blob (the coordinator reuses the body a frame arrives in, so
// the copy is required anyway): four string allocations per frame instead of
// one per gene, and the reason Merge clones what it returns.
//
// Version 1 carried both accumulator pairs as four float columns and no kind
// byte. A peer that still speaks it fails the version check here, which the
// scatter treats as a failed attempt; testdata/fuzz keeps its frames as
// inputs that must be rejected.
const (
	frameMagic   = "SPLP"
	frameVersion = 2
	// frameMinString, frameMinDataset and frameMinGene are the fewest frame
	// bytes one query string, one dataset and one gene can occupy;
	// frameColumns is the number of string columns, each with 8 bytes of
	// length fields.
	frameMinString  = 1
	frameMinDataset = 1 + 24
	frameMinGene    = 2 + 16
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
	size := uint64(len(frameMagic) + 2 + 3*4 + 24*len(p.Datasets) + 2*8*len(p.IDs) + len(genes))
	cols := [][]string{p.Query, dsNames, p.IDs, p.Names}
	if genes != nil {
		cols = cols[:2]
	}
	for _, col := range cols {
		// A table under 4 GiB also keeps the row counts within their u32s:
		// every string takes at least one table byte.
		table, blob := columnSize(col)
		if table > math.MaxUint32 || blob > math.MaxUint32 {
			return nil, errors.New("spell: partial string column exceeds the frame's 4 GiB limit")
		}
		size += 8 + table + blob
	}

	if uint64(cap(b)-len(b)) < size {
		b = append(make([]byte, 0, uint64(len(b))+size), b...)
	}
	b = append(b, frameMagic...)
	b = append(b, frameVersion, 0)
	if p.Uniform {
		b[len(b)-1] = 1
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Query)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Datasets)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.IDs)))
	b = appendColumn(b, p.Query)
	b = appendColumn(b, dsNames)
	for _, d := range p.Datasets {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(d.Index)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d.Coherence))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(d.Present)))
	}
	if genes != nil {
		b = append(b, genes...)
	} else {
		b = appendColumn(appendColumn(b, p.IDs), p.Names)
	}
	for _, col := range [2][]float64{p.Sum, p.Cnt} {
		for _, v := range col {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b, nil
}

// columnSize returns the table and blob byte lengths of a string column.
func columnSize(col []string) (table, blob uint64) {
	for _, s := range col {
		table += uint64(uvarintLen(uint64(len(s))))
		blob += uint64(len(s))
	}
	return table, blob
}

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

func appendColumn(b []byte, col []string) []byte {
	table, blob := columnSize(col)
	b = binary.LittleEndian.AppendUint32(b, uint32(table))
	b = binary.LittleEndian.AppendUint32(b, uint32(blob))
	for _, s := range col {
		b = binary.AppendUvarint(b, uint64(len(s)))
	}
	for _, s := range col {
		b = append(b, s...)
	}
	return b
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
	r := frameReader{b: data}
	head := r.take(uint64(len(frameMagic)) + 1)
	if r.err != nil || string(head[:len(frameMagic)]) != frameMagic {
		return errors.New("spell: not a partial frame (bad magic)")
	}
	if v := head[len(frameMagic)]; v != frameVersion {
		return fmt.Errorf("spell: partial frame version %d, this build reads version %d", v, frameVersion)
	}
	kind := r.take(1)
	if r.err == nil && kind[0] > 1 {
		r.err = fmt.Errorf("spell: partial frame of unknown accumulator kind %d", kind[0])
	}
	nq, nd, ng := uint64(r.u32()), uint64(r.u32()), uint64(r.u32())
	if r.err == nil && frameMinString*nq+frameMinDataset*nd+frameMinGene*ng+8*frameColumns > uint64(len(r.b)) {
		r.err = fmt.Errorf("spell: partial frame claims %d query genes, %d datasets and %d genes in %d bytes", nq, nd, ng, len(r.b))
	}
	if r.err != nil {
		return r.err
	}

	out := Partial{Uniform: kind[0] == 1}
	out.Query = r.column(int(nq))
	dsNames := r.column(int(nd))
	rows := r.take(24 * nd)
	if r.err != nil {
		return r.err
	}
	out.Datasets = make([]PartialDataset, nd)
	for i := range out.Datasets {
		row := rows[24*i:]
		out.Datasets[i] = PartialDataset{
			Index:     int(int64(binary.LittleEndian.Uint64(row))),
			Name:      dsNames[i],
			Coherence: math.Float64frombits(binary.LittleEndian.Uint64(row[8:])),
			Present:   int(int64(binary.LittleEndian.Uint64(row[16:]))),
		}
	}
	out.IDs, out.Names = genes.columns(&r, int(ng))
	floats := r.take(2 * 8 * ng)
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("spell: %d trailing bytes after the partial frame", len(r.b))
	}
	// One allocation cut two ways.
	vals := make([]float64, 2*ng)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(floats[8*i:]))
	}
	n := int(ng)
	out.Sum, out.Cnt = vals[:n:n], vals[n:]
	*p = out
	return nil
}

// frameReader consumes a frame front to back. The first failed length check
// sticks in err; after it every read returns zero values, so callers check
// err once per section, before using what they read to size anything.
type frameReader struct {
	b   []byte
	err error
}

// take returns the next n bytes, or nil (and sets err) if fewer are left.
func (r *frameReader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = fmt.Errorf("spell: partial frame truncated: %d bytes wanted, %d left", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *frameReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// column reads a string column of n strings (n already checked against the
// frame size): the strings are substrings of one copy of the blob.
func (r *frameReader) column(n int) []string {
	tableLen, blobLen := uint64(r.u32()), uint64(r.u32())
	table := r.take(tableLen)
	blob := string(r.take(blobLen))
	if r.err != nil {
		return nil
	}
	out := make([]string, n)
	at := uint64(0)
	for i := range out {
		var l uint64
		if len(table) > 0 && table[0] < 0x80 { // every realistic name: one byte
			l, table = uint64(table[0]), table[1:]
		} else {
			v, w := binary.Uvarint(table)
			if w <= 0 {
				r.err = fmt.Errorf("spell: partial frame string table ends after %d of %d lengths", i, n)
				return nil
			}
			l, table = v, table[w:]
		}
		if l > uint64(len(blob))-at {
			r.err = fmt.Errorf("spell: partial frame string %d overruns its %d-byte blob", i, len(blob))
			return nil
		}
		out[i] = blob[at : at+l]
		at += l
	}
	if len(table) != 0 || at != uint64(len(blob)) {
		r.err = fmt.Errorf("spell: partial frame string column of %d disagrees with its lengths (%d table bytes, %d blob bytes unused)",
			n, len(table), uint64(len(blob))-at)
		return nil
	}
	return out
}

// GeneColumns lets the frames a coordinator decodes share their gene ID and
// name columns: a shard lists the same genes in every answer until it
// reloads, and the shards of one compendium list the same genes as each
// other, which also keeps Merge on its no-map path. It keeps the last few
// column pairs it decoded and compares each frame's bytes with theirs, in
// full. Safe for concurrent use; the zero value is ready.
type GeneColumns struct {
	mu   sync.Mutex
	seen [4]geneColumns
	next int
}

type geneColumns struct {
	frame      string // the pair's bytes in the frame
	ids, names []string
}

// columns reads the gene ID and name columns of n strings each, from m's
// copy when m holds one decoded from the same bytes.
func (m *GeneColumns) columns(r *frameReader, n int) (ids, names []string) {
	if m == nil {
		return r.column(n), r.column(n)
	}
	pair := r.b[:pairLen(r.b)]
	m.mu.Lock()
	for _, c := range m.seen {
		if len(c.ids) == n && c.frame == string(pair) {
			m.mu.Unlock()
			r.take(uint64(len(pair)))
			return c.ids, c.names
		}
	}
	m.mu.Unlock()
	if ids, names = r.column(n), r.column(n); r.err == nil {
		m.mu.Lock()
		m.seen[m.next] = geneColumns{string(pair), ids, names}
		m.next = (m.next + 1) % len(m.seen)
		m.mu.Unlock()
	}
	return ids, names
}

// pairLen is how many bytes the two string columns b starts with claim, at
// most len(b).
func pairLen(b []byte) int {
	at := uint64(0)
	for range 2 {
		if at+8 > uint64(len(b)) {
			break
		}
		at += 8 + uint64(binary.LittleEndian.Uint32(b[at:])) + uint64(binary.LittleEndian.Uint32(b[at+4:]))
	}
	return int(min(at, uint64(len(b))))
}
