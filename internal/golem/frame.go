package golem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The PartialCounts wire frame. A slice's tallies cross the shard hop as one
// little-endian frame, a part of the shard's enrichment answer body
// (shard.EnrichAnswer):
//
//	section        encoding                                    length check
//	magic+version  "GLPC", 0x01                                5 bytes, both equal
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
const (
	countsMagic   = "GLPC"
	countsVersion = 1
	countsHead    = len(countsMagic) + 1 + 8 + 4*8 + 2*4
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
	if size := countsHead + ns + 8*nt; cap(b)-len(b) < size {
		b = append(make([]byte, 0, len(b)+size), b...)
	}
	b = append(b, countsMagic...)
	b = append(b, countsVersion)
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
	if len(data) <= len(countsMagic) || string(data[:len(countsMagic)]) != countsMagic {
		return errors.New("golem: not a partial-counts frame (bad magic)")
	}
	if v := data[len(countsMagic)]; v != countsVersion {
		return fmt.Errorf("golem: partial-counts frame version %d, this build reads version %d", v, countsVersion)
	}
	if len(data) < countsHead {
		return fmt.Errorf("golem: partial-counts frame truncated at %d bytes", len(data))
	}
	le := binary.LittleEndian
	scalar := func(i int) int { return int(int64(le.Uint64(data[len(countsMagic)+9+8*i:]))) }
	ns, nt := uint64(le.Uint32(data[countsHead-8:])), uint64(le.Uint32(data[countsHead-4:]))
	body := data[countsHead:]
	if ns+8*nt != uint64(len(body)) {
		return fmt.Errorf("golem: partial-counts frame claims %d flags and %d terms in %d bytes", ns, nt, len(body))
	}
	out := PartialCounts{
		Fingerprint:    le.Uint64(data[len(countsMagic)+1:]),
		Slice:          scalar(0),
		Slices:         scalar(1),
		BackgroundSize: scalar(2),
		SelectionSize:  scalar(3),
		InBackground:   make([]bool, ns),
	}
	for i, f := range body[:ns] {
		if f > 1 {
			return fmt.Errorf("golem: partial-counts frame membership flag %d is %d", i, f)
		}
		out.InBackground[i] = f == 1
	}
	// One allocation cut two ways.
	vals := make([]int32, 2*nt)
	for i := range vals {
		vals[i] = int32(le.Uint32(body[ns+4*uint64(i):]))
	}
	out.Selected, out.Background = vals[:nt:nt], vals[nt:]
	*p = out
	return nil
}
