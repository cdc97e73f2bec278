// Package wire is the bounded codec under every body that crosses the shard
// hop: one little-endian Reader and the writers of the two string encodings
// those bodies use. It owns the rule every decoder there keeps — a length or
// count is checked against the bytes left before anything is sized by it —
// so that a body cannot make its decoder allocate more than a small multiple
// of its own length, whatever its fields claim.
//
// A body opens with a head: a four-byte magic and a version byte. A string
// is a u32 length and its bytes; a list of strings is a u32 count and that
// many strings. A string column of n is a u32 table length, a u32 blob
// length, a table of n uvarint string lengths and one blob of all the
// strings' bytes: denser than n strings, and decoded into substrings of one
// copy of the blob.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Reader consumes a body front to back. The first failed check sticks: after
// it every read returns zero values and Close returns that error, so a
// decoder checks once per section, before it sizes anything by what it read.
type Reader struct {
	b    []byte
	err  error
	what string
}

// Open starts reading data as the body named what (the prefix of every
// error, e.g. "spell: partial frame"), whose head is head: its magic, then
// its version as the last byte.
func Open(data []byte, what, head string) Reader {
	r := Reader{b: data, what: what}
	magic := head[:len(head)-1]
	switch {
	case len(data) < len(head) || string(data[:len(magic)]) != magic:
		r.Fail(fmt.Errorf("%s: bad magic", what))
	case data[len(magic)] != head[len(magic)]:
		r.Fail(fmt.Errorf("%s version %d, this build reads version %d", what, data[len(magic)], head[len(magic)]))
	default:
		r.b = data[len(head):]
	}
	return r
}

// Fail fails the reader with err, unless a check has failed already: a
// decoder's own checks stick like the reader's.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err, r.b = err, nil
	}
}

// Err returns the first failed check, or nil.
func (r *Reader) Err() error { return r.err }

// Close returns the first failed check, or an error if any byte is left.
func (r *Reader) Close() error {
	if r.err == nil && len(r.b) != 0 {
		return fmt.Errorf("%s: %d trailing bytes", r.what, len(r.b))
	}
	return r.err
}

// Need reports whether n bytes are left, failing the reader if not. It
// consumes nothing: it is the check of a count against the fewest bytes the
// items it counts can occupy.
func (r *Reader) Need(n uint64) bool {
	if r.err == nil && n > uint64(len(r.b)) {
		r.Fail(fmt.Errorf("%s truncated: %d bytes wanted, %d left", r.what, n, len(r.b)))
	}
	return r.err == nil
}

// PeekColumns returns the bytes the next k string columns claim, at most the
// bytes left (none after a failed check), consuming nothing: a decoder that
// has read the same bytes before can skip them.
func (r *Reader) PeekColumns(k int) []byte {
	at := uint64(0)
	for range k {
		if at+8 > uint64(len(r.b)) {
			break
		}
		at += 8 + uint64(binary.LittleEndian.Uint32(r.b[at:])) + uint64(binary.LittleEndian.Uint32(r.b[at+4:]))
	}
	return r.b[:min(at, uint64(len(r.b)))]
}

// Take returns the next n bytes, a sub-slice of the body.
func (r *Reader) Take(n uint64) []byte {
	if !r.Need(n) {
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// Byte reads a byte that may be at most limit.
func (r *Reader) Byte(limit byte) byte {
	b := r.Take(1)
	if b == nil {
		return 0
	}
	if b[0] > limit {
		r.Fail(fmt.Errorf("%s: byte %d exceeds %d", r.what, b[0], limit))
		return 0
	}
	return b[0]
}

// U32 reads a little-endian u32.
func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian u64.
func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// String reads a u32-length string.
func (r *Reader) String() string { return string(r.Take(uint64(r.U32()))) }

// Strings reads a u32 count of groups of per strings, and the strings: nil
// for none. Every string takes 4 bytes at least, which bounds the count.
func (r *Reader) Strings(per uint64) []string {
	n := uint64(r.U32()) * per
	if n == 0 || !r.Need(4*n) {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	return out
}

// Column reads a string column of n strings, n already checked against the
// bytes left: the strings are substrings of one copy of the blob.
func (r *Reader) Column(n int) []string {
	tableLen, blobLen := uint64(r.U32()), uint64(r.U32())
	table := r.Take(tableLen)
	blob := string(r.Take(blobLen))
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
				r.Fail(fmt.Errorf("%s string table ends after %d of %d lengths", r.what, i, n))
				return nil
			}
			l, table = v, table[w:]
		}
		if l > uint64(len(blob))-at {
			r.Fail(fmt.Errorf("%s string %d overruns its %d-byte blob", r.what, i, len(blob)))
			return nil
		}
		out[i] = blob[at : at+l]
		at += l
	}
	if len(table) != 0 || at != uint64(len(blob)) {
		r.Fail(fmt.Errorf("%s string column of %d disagrees with its lengths (%d table bytes, %d blob bytes unused)",
			r.what, n, len(table), uint64(len(blob))-at))
		return nil
	}
	return out
}

// AppendString appends s as a u32-length string.
func AppendString(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
}

// AppendStrings appends a list: its u32 count and its strings.
func AppendStrings(b []byte, ss []string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// ColumnSize returns the table and blob byte lengths of col's string column.
// The caller checks both against the u32s that carry them.
func ColumnSize(col []string) (table, blob uint64) {
	for _, s := range col {
		for x := uint64(len(s)); x >= 0x80; x >>= 7 {
			table++
		}
		table++
		blob += uint64(len(s))
	}
	return table, blob
}

// AppendColumn appends col as a string column.
func AppendColumn(b []byte, col []string) []byte {
	table, blob := ColumnSize(col)
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
