package golem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"forestview/internal/wire"
)

// The PartialCounts wire frame. A slice's tallies cross the shard hop as one
// little-endian frame, a part of the shard's enrichment answer body
// (shard.EnrichAnswer):
//
//	section        encoding                                    length check
//	head           "GLPC", 0x01                                5 bytes, both equal
//	scalars        Fingerprint u64; Slice, Slices,             40 bytes
//	               BackgroundSize, SelectionSize: i64 each
//	counts         ns, nt: u32 each                            8 bytes
//	InBackground   ns × u8, each 0 or 1                        ns + 8·nt = bytes left
//	Selected       nt × i32
//	Background     nt × i32
//
// Every decoded element costs at least its own size in frame bytes, so a
// frame cannot make the decoder allocate more than about its own length. The
// frame checks only its own shape; whether the values fit the catalog is the
// coordinator's check (shard's checkCounts).
//
// The term catalog a coordinator fetches from a shard is a body of its own,
// of internal/wire's u32 strings:
//
//	head           "FVSC", 0x01
//	scalars        Fingerprint u64, BackgroundSize i64
//	terms          a u32 term count and each term's ID and Name
const (
	countsHead  = "GLPC\x01"
	catalogHead = "FVSC\x01"
)

// AppendBinary appends p's frame to b.
func (p *PartialCounts) AppendBinary(b []byte) ([]byte, error) {
	ns, nt := len(p.InBackground), len(p.Selected)
	if len(p.Background) != nt {
		return nil, fmt.Errorf("golem: %d selected and %d background tallies", nt, len(p.Background))
	}
	if uint64(ns) > math.MaxUint32 || uint64(nt) > math.MaxUint32 {
		return nil, errors.New("golem: partial counts exceed the frame's u32 counts")
	}
	b = append(slices.Grow(b, len(countsHead)+5*8+2*4+ns+8*nt), countsHead...)
	b = binary.LittleEndian.AppendUint64(b, p.Fingerprint)
	for _, v := range [4]int{p.Slice, p.Slices, p.BackgroundSize, p.SelectionSize} {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(ns))
	b = binary.LittleEndian.AppendUint32(b, uint32(nt))
	for _, in := range p.InBackground {
		if in {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	for _, col := range [2][]int32{p.Selected, p.Background} {
		for _, v := range col {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	}
	return b, nil
}

// UnmarshalBinary decodes one frame into p, replacing its contents. A
// malformed frame — wrong magic or version, counts that disagree with the
// bytes left, a flag that is not 0 or 1 — is an error and leaves p untouched;
// it never panics. data is not retained.
func (p *PartialCounts) UnmarshalBinary(data []byte) error {
	r := wire.Open(data, "golem: partial-counts frame", countsHead)
	out := PartialCounts{
		Fingerprint:    r.U64(),
		Slice:          int(int64(r.U64())),
		Slices:         int(int64(r.U64())),
		BackgroundSize: int(int64(r.U64())),
		SelectionSize:  int(int64(r.U64())),
	}
	ns, nt := uint64(r.U32()), uint64(r.U32())
	if !r.Need(ns + 8*nt) {
		return r.Close()
	}
	flags, counts := r.Take(ns), r.Take(8*nt)
	if err := r.Close(); err != nil {
		return err
	}
	out.InBackground = make([]bool, ns)
	for i, f := range flags {
		if f > 1 {
			return fmt.Errorf("golem: partial-counts frame: InBackground flag %d is %d, not 0 or 1", i, f)
		}
		out.InBackground[i] = f == 1
	}
	// One allocation cut two ways.
	vals := make([]int32, 2*nt)
	for i := range vals {
		vals[i] = int32(binary.LittleEndian.Uint32(counts[4*i:]))
	}
	out.Selected, out.Background = vals[:nt:nt], vals[nt:]
	*p = out
	return nil
}

// AppendBinary appends c's body to b.
func (c *TermCatalog) AppendBinary(b []byte) ([]byte, error) {
	b = binary.LittleEndian.AppendUint64(append(b, catalogHead...), c.Fingerprint)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(c.BackgroundSize)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.Terms)))
	for _, t := range c.Terms {
		b = wire.AppendString(wire.AppendString(b, t.ID), t.Name)
	}
	return b, nil
}

// UnmarshalBinary decodes a body into c, replacing its contents, with
// PartialCounts' contract.
func (c *TermCatalog) UnmarshalBinary(data []byte) error {
	r := wire.Open(data, "golem: term catalog", catalogHead)
	out := TermCatalog{Fingerprint: r.U64(), BackgroundSize: int(int64(r.U64()))}
	ids := r.Strings(2) // an ID and a Name a term
	if err := r.Close(); err != nil {
		return err
	}
	out.Terms = make([]TermInfo, len(ids)/2)
	for t := range out.Terms {
		out.Terms[t] = TermInfo{ID: ids[2*t], Name: ids[2*t+1]}
	}
	*c = out
	return nil
}
