package wire

import (
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

const testHead = "TEST\x01"

// body is testHead followed by parts, each a []byte, a string (its bytes)
// or a uint32 (little-endian).
func body(parts ...any) []byte {
	b := []byte(testHead)
	for _, p := range parts {
		switch p := p.(type) {
		case []byte:
			b = append(b, p...)
		case string:
			b = append(b, p...)
		case uint32:
			b = binary.LittleEndian.AppendUint32(b, p)
		}
	}
	return b
}

// allocated is the least of three runs' bytes allocated by f: TotalAlloc is
// process-wide, and a bystander allocates only sometimes.
func allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		f()
		runtime.ReadMemStats(&ms1)
		least = min(least, ms1.TotalAlloc-ms0.TotalAlloc)
	}
	return least
}

// TestReader holds the Reader to its contract, one script of reads a case.
func TestReader(t *testing.T) {
	long := strings.Repeat("x", 1<<14) // its length is a 3-byte uvarint
	lens := []string{strings.Repeat("a", 0x7f), strings.Repeat("b", 0x80), long}
	// Every read after a failed check, and what each returns then.
	zeroReads := func(r *Reader) []any {
		return []any{r.U32(), r.U64(), r.Byte(255), r.Take(0), r.String(), r.Strings(1), r.Column(0), r.PeekColumns(1), r.Need(0)}
	}
	zeros := []any{uint32(0), uint64(0), byte(0), []byte(nil), "", []string(nil), []string(nil), []byte(nil), false}

	for _, tc := range []struct {
		name string
		data []byte
		read func(r *Reader) []any
		want []any
		err  string // a substring of Close's error; "" for none
	}{
		{
			name: "bad magic fails every read",
			data: append([]byte("TSET\x01"), 1, 0, 0, 0),
			read: zeroReads, want: zeros, err: "test body: bad magic",
		},
		{
			name: "short head",
			data: []byte("TEST"),
			read: zeroReads, want: zeros, err: "bad magic",
		},
		{
			name: "another version",
			data: []byte("TEST\x02\x01\x00\x00\x00"),
			read: zeroReads, want: zeros, err: "test body version 2, this build reads version 1",
		},
		{
			name: "a failed check sticks and is the error Close returns",
			data: body(uint32(20), "abc", uint32(7), uint32(7)),
			read: func(r *Reader) []any {
				return append([]any{r.String(), r.Err() != nil}, zeroReads(r)...)
			},
			want: append([]any{"", true}, zeros...), err: "truncated: 20 bytes wanted, 11 left",
		},
		{
			name: "a byte over its max",
			data: body("\x02\x00"),
			read: func(r *Reader) []any { return []any{r.Byte(1), r.Byte(1)} },
			want: []any{byte(0), byte(0)}, err: "byte 2 exceeds 1",
		},
		{
			name: "need consumes nothing",
			data: body(uint32(7), "\x01"),
			read: func(r *Reader) []any { return []any{r.Need(5), r.Need(5), r.U32(), r.Byte(1)} },
			want: []any{true, true, uint32(7), byte(1)},
		},
		{
			name: "need fails past the end",
			data: body(uint32(7)),
			read: func(r *Reader) []any { return []any{r.Need(5), r.U32()} },
			want: []any{false, uint32(0)}, err: "truncated: 5 bytes wanted, 4 left",
		},
		{
			name: "trailing bytes",
			data: body(uint32(7), "\x00"),
			read: func(r *Reader) []any { return []any{r.U32()} },
			want: []any{uint32(7)}, err: "test body: 1 trailing bytes",
		},
		{
			name: "strings and lists",
			data: AppendStrings(AppendString(body(), "s"), []string{"a", ""}),
			read: func(r *Reader) []any { return []any{r.String(), r.Strings(1)} },
			want: []any{"s", []string{"a", ""}},
		},
		{
			name: "a list of pairs",
			data: AppendString(AppendString(body(uint32(1)), "bc"), "d"),
			read: func(r *Reader) []any { return []any{r.Strings(2)} },
			want: []any{[]string{"bc", "d"}},
		},
		{
			name: "a count past the bytes left is refused before it is sized",
			data: body(uint32(1<<20), "abcdefghijklmnop"),
			read: func(r *Reader) []any {
				n := allocated(func() { r := *r; r.Strings(2) })
				return []any{r.Strings(2), n < 1024}
			},
			want: []any{[]string(nil), true}, err: "truncated: 8388608 bytes wanted, 16 left",
		},
		{
			name: "column lengths 0x7f, 0x80 and a 3-byte varint",
			data: AppendColumn(body(), lens),
			read: func(r *Reader) []any {
				// The table, read by binary.Uvarint.
				table := r.PeekColumns(1)[8:][:1+2+3]
				var want []uint64
				for len(table) > 0 {
					v, w := binary.Uvarint(table)
					want, table = append(want, v), table[w:]
				}
				var got []uint64
				for _, s := range r.Column(3) {
					got = append(got, uint64(len(s)))
				}
				return []any{got, want}
			},
			want: []any{[]uint64{0x7f, 0x80, 1 << 14}, []uint64{0x7f, 0x80, 1 << 14}},
		},
		{
			name: "column lengths past the blob",
			data: body(uint32(2), uint32(2), "\x02\x01", "ab"),
			read: func(r *Reader) []any { return []any{r.Column(2)} },
			want: []any{[]string(nil)}, err: "string 1 overruns its 2-byte blob",
		},
		{
			name: "column table short of its count",
			data: body(uint32(1), uint32(2), "\x02", "ab"),
			read: func(r *Reader) []any { return []any{r.Column(2)} },
			want: []any{[]string(nil)}, err: "string table ends after 1 of 2 lengths",
		},
		{
			name: "column blob bytes unused",
			data: body(uint32(1), uint32(3), "\x02", "abc"),
			read: func(r *Reader) []any { return []any{r.Column(1)} },
			want: []any{[]string(nil)}, err: "disagrees with its lengths (0 table bytes, 1 blob bytes unused)",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := Open(tc.data, "test body", testHead)
			if got := tc.read(&r); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("read %v, want %v", got, tc.want)
			}
			err := r.Close()
			if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
				t.Errorf("Close() = %v, want %q", err, tc.err)
			}
		})
	}
}

// TestColumnRoundTrip: what AppendColumn writes, ColumnSize sizes and Column
// reads back, for lengths on either side of each varint width.
func TestColumnRoundTrip(t *testing.T) {
	var col []string
	for _, n := range []int{0, 1, 0x7f, 0x80, 0x3fff, 0x4000} {
		col = append(col, strings.Repeat("g", n))
	}
	b := AppendColumn(body(), col)
	table, blob := ColumnSize(col)
	if uint64(len(b)-len(testHead)) != 8+table+blob || table != 1+1+1+2+2+3 {
		t.Fatalf("ColumnSize = %d, %d for a %d-byte column", table, blob, len(b)-len(testHead))
	}
	r := Open(b, "test body", testHead)
	if got := r.Column(len(col)); !reflect.DeepEqual(got, col) || r.Close() != nil {
		t.Fatalf("column read back as %d strings (%v)", len(got), r.Close())
	}
}

// FuzzReader runs a script of reads over arbitrary bytes: the input's first
// byte is the script's length, the next that many bytes its reads (the low
// nibble, mod 9, picks one, the high nibble is its argument), the rest the
// body, read once with a head put in front and once as it is. No read may
// panic, none may return anything but zero values after a failed check, and
// the whole script may allocate at most 16·len + 1024 bytes.
func FuzzReader(f *testing.F) {
	f.Add(append([]byte{4, 0x20, 0x15, 0x16, 0x08}, AppendString(binary.LittleEndian.AppendUint32(nil, 3), "abc")...))
	f.Add(append([]byte{3, 0x17, 0x07, 0x09}, AppendColumn(nil, []string{"a", "bc"})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		script := data[1:][:min(int(data[0]), len(data)-1)]
		rest := data[1+len(script):]
		for _, b := range [][]byte{append([]byte(testHead), rest...), rest} {
			run := func() {
				r := Open(b, "fuzz body", testHead)
				for _, op := range script {
					failed := r.Err() != nil
					if got := read(&r, op); failed && !reflect.ValueOf(got).IsZero() {
						t.Fatalf("read %#x after a failed check returned %v", op, got)
					}
				}
				if err := r.Err(); err != nil && r.Close() != err {
					t.Fatalf("Close() = %v, want the first failed check, %v", r.Close(), err)
				}
			}
			if limit, got := uint64(16*len(b)+1024), allocated(run); got > limit {
				t.Errorf("script %x over %d bytes allocated %d (limit %d)", script, len(b), got, limit)
			}
		}
	})
}

// read is one read of FuzzReader's scripts. Column's n is checked against
// the bytes left first, as its callers do.
func read(r *Reader, op byte) any {
	arg := op >> 4
	switch op & 0xf % 9 {
	case 0:
		return r.Need(uint64(arg))
	case 1:
		return r.Take(uint64(arg))
	case 2:
		return r.Byte(arg)
	case 3:
		return r.U32()
	case 4:
		return r.U64()
	case 5:
		return r.String()
	case 6:
		return r.Strings(uint64(arg))
	case 7:
		if !r.Need(uint64(arg)) {
			return []string(nil)
		}
		return r.Column(int(arg))
	}
	return r.PeekColumns(int(arg))
}
