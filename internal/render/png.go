package render

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"image"
	"image/color"
	"io"
	"math/bits"
	"os"
	"slices"
	"sync"
)

// The PNG writer is built for what a heatmap is: rows of runs of one
// pixel, and rows that repeat — the matches deflate would search for. This
// one does not search: it takes each row as its runs (see run), cut from a
// canvas row or straight from a tile's rasters, which paint no pixel.
// Rows are unfiltered (filter None); a row equal to one still in the 32 KiB
// window (the last row with its hash, see hashRuns) is whole-row matches
// back to it, any other row its runs (see rowTokens). Tokens are
// Huffman-coded in dynamic blocks. There is no level: the output is a
// function of the pixels alone.
const (
	windowSize     = 1 << 15 // deflate's farthest match distance
	minMatch       = 3
	maxMatch       = 258
	maxBlockTokens = 1 << 16 // bounds the token buffer whatever the image size
	rowTableBits   = 12      // the row table's largest size, in bits
	adlerMod       = 65521
)

// A run is pixels of one colour: the pixel word, as image.RGBA holds it (R
// in the low byte, alpha premultiplied), up to the column end. A row is its
// runs left to right, maximal (no two neighbours equal), so two rows are
// equal exactly when their runs are.
type run struct {
	end int32
	px  uint32
}

// pngEncoder is the reusable state of one encode, pooled: one per
// concurrent encode, each with buffers grown to the largest file it wrote.
type pngEncoder struct {
	out    []byte   // the file; the deflate stream is appended bit by bit
	tokens []uint64 // the current block (see token)
	ntok   int      // its length in deflate symbols (a run token is bpp or bpp+1)
	rows   [1 << rowTableBits]rowEntry
	bits   uint64 // pending output bits, LSB first
	nbits  uint

	// The image being encoded: a canvas, or when img is nil, a HeatmapPNG
	// tile: its heatmap, its strips by Orientation, and the row they make.
	img    *image.RGBA
	heat   heatRaster
	strips [2]stripRaster
	tile   []run
	w, h   int

	bpp, stride int // bytes a pixel and a filtered row
	// The runs of the rows a match can reach: row y's are
	// runs[rowAt[y]-base : rowAt[y+1]-base].
	runs     []run
	rowAt    []int
	base     int
	litFreq  [286]uint32 // literal/length symbol counts of the current block
	distFreq [30]uint32
}

// rowEntry is the last row seen with a hash, with its Adler-32 sums, so a
// repeated row costs neither a scan nor a sum.
type rowEntry struct {
	y1        int32  // row index + 1; 0 is empty
	sum, wsum uint32 // the row's Adler-32 sums (see rowTokens), mod adlerMod
}

var pngEncoders = sync.Pool{New: func() any { return new(pngEncoder) }}

// pngHead is everything before the IDAT payload: signature, IHDR chunk
// (length, type, 13 bytes, CRC) and the IDAT chunk's length and type.
const pngHead = 8 + (8 + 13 + 4) + 8

// encode writes the image set in e, w×h, into e.out as a PNG file: 8-bit
// RGB when every pixel is opaque, else straight-alpha RGBA, in one IDAT
// chunk. It starts as RGB and starts over as RGBA at a pixel that is not
// opaque: every pixel is in a run, which is checked, or equal to one, so
// no separate pass.
func (e *pngEncoder) encode(w, h int) error {
	defer func() { // a pooled encoder must not pin the image
		e.img = nil
		e.heat.unpin()
	}()
	if w <= 0 || h <= 0 {
		return fmt.Errorf("render: encoding PNG: invalid image size %dx%d", w, h)
	}
	e.w, e.h = w, h
	if !e.deflate(3) {
		e.deflate(4)
	}
	idat := e.out[pngHead-4:] // chunk type + payload: what the CRC covers
	binary.BigEndian.PutUint32(e.out[pngHead-8:], uint32(len(idat)-4))
	e.out = binary.BigEndian.AppendUint32(e.out, crc32.ChecksumIEEE(idat))
	e.out = append(e.out, "\x00\x00\x00\x00IEND\xae\x42\x60\x82"...)
	return nil
}

// deflate writes the image into e.out at bpp bytes a pixel, up to the end
// of the IDAT payload; at 3 it gives up, false, on a pixel that is not
// opaque.
func (e *pngEncoder) deflate(bpp int) bool {
	w, h := e.w, e.h
	e.bpp, e.stride = bpp, 1+bpp*w // a filtered row: the filter byte, then the pixels
	e.out = append(e.out[:0], "\x89PNG\r\n\x1a\n\x00\x00\x00\x0dIHDR"...)
	e.out = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(e.out, uint32(w)), uint32(h))
	e.out = append(e.out, 8, byte(4*bpp-10), 0, 0, 0) // 8-bit RGB (2) or RGBA (6)
	e.out = binary.BigEndian.AppendUint32(e.out, crc32.ChecksumIEEE(e.out[12:29]))
	e.out = append(e.out, "\x00\x00\x00\x00IDAT\x78\x01"...) // IDAT's length is patched in by encode
	e.tokens, e.ntok, e.bits, e.nbits = e.tokens[:0], 0, 0, 0
	e.litFreq, e.distFreq = [286]uint32{}, [30]uint32{}
	e.runs, e.rowAt, e.base = e.runs[:0], append(e.rowAt[:0], 0), 0

	// About twice as many slots as the window holds rows.
	reach := windowSize / e.stride // the rows back a match can reach
	tableBits := min(rowTableBits, 1+bits.Len(uint(min(h, reach+1))))
	table := e.rows[:1<<tableBits]
	clear(table)
	var slot *rowEntry
	s1, s2 := uint64(1), uint64(0) // Adler-32 of the filtered rows
	for y := 0; y < h; y++ {
		if dead := e.rowAt[max(0, y-reach)] - e.base; dead >= 1024 && 2*dead >= len(e.runs) {
			e.runs = e.runs[:copy(e.runs, e.runs[dead:])]
			e.base += dead
		}
		e.appendRow(y)
		cur := e.row(y)
		if y > 0 && reach > 0 && slices.Equal(cur, e.row(y-1)) {
			e.match(e.stride, e.stride) // the slot of the row above is this row's
		} else {
			slot = &table[hashRuns(cur)>>(32-tableBits)] // fixed: no per-process seed
			if y0 := int(slot.y1) - 1; y0 < 0 || y-y0 > reach || !slices.Equal(cur, e.row(y0)) {
				var up []run
				if y > 0 && reach > 0 {
					up = e.row(y - 1)
				}
				sum, wsum, ok := e.rowTokens(cur, up)
				if !ok {
					return false
				}
				*slot = rowEntry{sum: uint32(sum % adlerMod), wsum: uint32(wsum % adlerMod)}
			} else {
				e.match(e.stride, (y-y0)*e.stride)
			}
		}
		slot.y1 = int32(y + 1)
		s2 = (s2 + uint64(e.stride)*s1 + uint64(slot.wsum)) % adlerMod
		s1 = (s1 + uint64(slot.sum)) % adlerMod
	}
	e.writeBlock(1)
	for ; e.nbits > 0; e.nbits -= min(8, e.nbits) {
		e.out = append(e.out, byte(e.bits))
		e.bits >>= 8
	}
	e.out = binary.BigEndian.AppendUint32(e.out, uint32(s2<<16|s1))
	return true
}

// appendRow appends row y's runs to e.runs.
func (e *pngEncoder) appendRow(y int) {
	switch {
	case e.img == nil:
		e.runs = append(e.runs, e.tileRow(y)...)
	case y > 0 && e.rowAt[y-1] >= e.base && bytes.Equal(e.canvasRow(y), e.canvasRow(y-1)):
		e.runs = append(e.runs, e.row(y-1)...) // a memory compare, not a scan
	default:
		src := e.canvasRow(y)
		for i, n := 0, e.w; i < n; {
			p, j := pixel(src, i), i+1
			for j < n && pixel(src, j) == p {
				j++
			}
			e.runs = append(e.runs, run{end: int32(j), px: p})
			i = j
		}
	}
	e.rowAt = append(e.rowAt, e.base+len(e.runs))
}

// row returns row y's runs, a row in reach of a match.
func (e *pngEncoder) row(y int) []run { return e.runs[e.rowAt[y]-e.base : e.rowAt[y+1]-e.base] }

// canvasRow returns the pixels of row y of the canvas being encoded.
func (e *pngEncoder) canvasRow(y int) []uint8 {
	off := e.img.PixOffset(e.img.Rect.Min.X, e.img.Rect.Min.Y+y)
	return e.img.Pix[off : off+4*e.w]
}

// hashRuns is a row's hash, read off its runs: a multiplicative hash, the
// table's slot its top bits.
func hashRuns(rs []run) uint32 {
	h := uint64(len(rs))
	for _, rn := range rs {
		h = (h ^ uint64(rn.end)<<32 ^ uint64(rn.px)) * 0x9e3779b97f4a7c15
	}
	return uint32(h >> 32)
}

// pixel is the i-th 4-byte pixel of p as one word.
func pixel(p []uint8, i int) uint32 { return binary.LittleEndian.Uint32(p[4*i:]) }

// rowTokens writes a row that repeats no row in reach, its runs cur: the
// filter byte, then from each run start either the run (first pixel as
// literals, the rest one match bpp back) or, where the row equals the row
// above, up, for longer than the run, that span as one match a row back —
// so a row that differs from the one above in places (a dendrogram leg
// across a zoomed heatmap) costs those places. On a tie the run wins: its
// matches carry no distance bits. It returns the row's Adler-32 sums, per
// run: sum = Σ b_i and wsum = Σ (stride − i)·b_i over the row's bytes b_i,
// so the stream's (s1, s2) become (s1 + sum, s2 + stride·s1 + wsum); not
// ok at a pixel that is not opaque when bpp is 3.
func (e *pngEncoder) rowTokens(cur, up []run) (sum, wsum uint64, ok bool) {
	bpp, stride := e.bpp, e.stride
	e.room(1)
	e.token(0) // filter None
	for i, k, u, covered := 0, 0, 0, 0; k < len(cur); {
		p, j := cur[k].px, int(cur[k].end)
		if bpp == 4 {
			p = straight(p) // the bytes written; runs compare as they are held
		}
		if covered == 0 && up != nil {
			for int(up[u].end) <= i {
				u++
			}
			if v := agree(cur[k:], up[u:], i) - i; v > j-i {
				e.match(v*bpp, stride)
				covered = v
			}
		}
		if covered > 0 { // inside a span already matched: only the sums
			j = min(j, i+covered)
			covered -= j - i
		} else {
			if bpp == 3 && p>>24 != 0xff {
				return 0, 0, false
			}
			// The run as one token where the block has room for both halves
			// (a match of 255 bytes or more asks room for two chunks).
			if n := (j - i - 1) * bpp; n <= maxMatch && e.ntok+bpp+2 <= maxBlockTokens {
				e.pixelRun(p, n)
			} else {
				e.room(bpp)
				e.pixelRun(p, 0)
				if n > 0 {
					e.match(n, bpp)
				}
			}
		}
		// Byte k of the run's r-th pixel is at row offset o + r·bpp + k.
		b0, b1, b2, b3 := uint64(p&0xff), uint64(p>>8&0xff), uint64(p>>16&0xff), uint64(p>>24)
		pSum, pWeighted := b0+b1+b2, b1+2*b2
		if bpp == 4 {
			pSum, pWeighted = pSum+b3, pWeighted+3*b3
		}
		r, o := uint64(j-i), uint64(1+i*bpp)
		sum += r * pSum
		wsum += r*((uint64(stride)-o)*pSum-pWeighted) - uint64(bpp)*(r*(r-1)/2)*pSum
		if i = j; j == int(cur[k].end) {
			k++
		}
	}
	return sum, wsum, true
}

// agree returns the column where rows a and b, runs from the ones holding
// column i on, first differ, or their end.
func agree(a, b []run, i int) int {
	for len(a) > 0 && len(b) > 0 && a[0].px == b[0].px {
		i = int(min(a[0].end, b[0].end))
		if a[0].end == int32(i) {
			a = a[1:]
		}
		if b[0].end == int32(i) {
			b = b[1:]
		}
	}
	return i
}

// straight converts an alpha-premultiplied pixel word to PNG's straight
// alpha, rounding as color.NRGBAModel does.
func straight(p uint32) uint32 {
	switch a := p >> 24 * 0x101; a {
	case 0xffff:
		return p
	case 0:
		return 0
	default:
		for k := 0; k < 24; k += 8 {
			c := uint32(uint8(p>>k)) * 0x101 * 0xffff / a >> 8
			p = p&^(0xff<<k) | uint32(uint8(c))<<k
		}
		return p
	}
}

// room ends the block if n more deflate symbols would not fit in it.
func (e *pngEncoder) room(n int) {
	if e.ntok+n > maxBlockTokens {
		e.writeBlock(0)
	}
}

// A token is a literal (its byte), a match chunk (length symbol | length
// extra<<9 | distance code<<14 | distance extra<<19) or a run (runToken |
// a pixel's bytes<<9 | n<<41: bpp literals, then unless n is 0 one match
// of n bytes bpp back). Its caller made room.
func (e *pngEncoder) token(t uint64) {
	e.tokens = append(e.tokens, t)
	e.ntok++
	e.litFreq[t&511]++
	if t&511 > 256 {
		e.distFreq[t>>14&31]++
	}
}

const runToken = 511

// match copies length bytes from dist back, in chunks of at most maxMatch
// and none shorter than minMatch (length >= minMatch).
func (e *pngEncoder) match(length, dist int) {
	d := uint32(dist - 1)
	dist32 := d // codes 0-3 carry no extra bits
	if d >= 4 {
		nb := uint32(bits.Len32(d)) - 1
		dist32 = 2*nb + d>>(nb-1)&1 | (d&(1<<(nb-1)-1))<<5
	}
	e.room(length/(maxMatch-minMatch) + 1) // every chunk but the last is over 255
	for length > 0 {
		n := min(length, maxMatch)
		if rest := length - n; rest > 0 && rest < minMatch {
			n = length - minMatch
		}
		length -= n
		e.token(uint64(lengthToken[n] | dist32<<14))
	}
}

// pixelRun writes the bpp bytes of p as literals, then, unless n is 0,
// n <= maxMatch bytes bpp back: one token. Its caller made room.
func (e *pngEncoder) pixelRun(p uint32, n int) {
	e.tokens = append(e.tokens, uint64(n)<<41|uint64(p)<<9|runToken)
	e.ntok += e.bpp
	e.litFreq[p&0xff]++
	e.litFreq[p>>8&0xff]++
	e.litFreq[p>>16&0xff]++
	if e.bpp == 4 {
		e.litFreq[p>>24]++
	}
	if n > 0 {
		e.ntok++
		e.litFreq[lengthToken[n]&511]++
		e.distFreq[e.bpp-1]++ // codes 0-3 carry no extra bits
	}
}

// lengthToken[n] is the length half of a match token (RFC 1951 §3.2.5).
var lengthToken = func() (t [maxMatch + 1]uint32) {
	for n := minMatch; n < maxMatch; n++ {
		l := uint32(n - minMatch)
		t[n] = 257 + l
		if l >= 8 {
			nb := uint32(bits.Len32(l)) - 1
			t[n] = 257 + 4*(nb-1) + l>>(nb-2)&3 | (l&(1<<(nb-2)-1))<<9
		}
	}
	t[maxMatch] = 285
	return t
}()

var (
	lengthExtraBits = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distExtraBits   = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	clExtraBits     = [3]uint8{2, 3, 7} // after code-length symbols 16, 17, 18
	clOrder         = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// writeBlock writes the buffered tokens as one dynamic-Huffman block, the
// stream's last when final is 1.
func (e *pngEncoder) writeBlock(final uint64) {
	var (
		litLen, distLen, clLen    [286]uint8
		litCode, distCode, clCode [286]uint16
		lens                      [286 + 30]uint8             // both code-length lists
		syms                      = make([]uint16, 0, 286+30) // lens coded: symbol | extra<<8
	)
	e.litFreq[256]++ // end of block
	huffman(litLen[:], litCode[:], e.litFreq[:], 15)
	huffman(distLen[:30], distCode[:30], e.distFreq[:], 15)
	nlit, ndist := 286, 30
	for nlit > 257 && litLen[nlit-1] == 0 {
		nlit--
	}
	for ndist > 1 && distLen[ndist-1] == 0 {
		ndist--
	}

	// Both code-length lists run-length coded as one (RFC 1951 §3.2.7): 16
	// repeats the last length 3-6 times, 17 and 18 are 3-10 and 11-138 zeros.
	n := copy(lens[copy(lens[:], litLen[:nlit]):], distLen[:ndist]) + nlit
	for i := 0; i < n; { // a run of one length, at most 7 (138 zeros) long
		l, r := lens[i], 1
		for i+r < n && lens[i+r] == l && r < 138 && (l == 0 || r < 7) {
			r++
		}
		i += r
		switch {
		case l == 0 && r >= 11:
			syms = append(syms, 18|uint16(r-11)<<8)
		case l == 0 && r >= 3:
			syms = append(syms, 17|uint16(r-3)<<8)
		case l != 0 && r >= 4:
			syms = append(syms, uint16(l), 16|uint16(r-4)<<8)
		default:
			for ; r > 0; r-- {
				syms = append(syms, uint16(l))
			}
		}
	}
	var clFreq [19]uint32
	for _, s := range syms {
		clFreq[s&0xff]++
	}
	huffman(clLen[:19], clCode[:19], clFreq[:], 7)
	ncl := 19
	for ncl > 4 && clLen[clOrder[ncl-1]] == 0 {
		ncl--
	}
	e.write(final|2<<1|uint64(nlit-257)<<3|uint64(ndist-1)<<8|uint64(ncl-4)<<13, 17)
	for _, s := range clOrder[:ncl] {
		e.write(uint64(clLen[s]), 3)
	}
	for _, s := range syms {
		sym, n := s&0xff, clLen[s&0xff]
		if sym < 16 {
			e.write(uint64(clCode[sym]), n)
		} else {
			e.write(uint64(clCode[sym])|uint64(s>>8)<<n, n+clExtraBits[sym-16])
		}
	}
	// A run token's match, n bytes bpp back, as one code of at most 35 bits;
	// tail[0], no match, is empty.
	var tail [maxMatch + 1]uint64
	var tailLen [maxMatch + 1]uint8
	for n, d := minMatch, e.bpp-1; n <= maxMatch; n++ {
		lt := lengthToken[n]
		ls, extra := lt&511, lengthExtraBits[lt&511-257]
		tail[n] = uint64(litCode[ls]) | uint64(lt>>9&31)<<litLen[ls] | uint64(distCode[d])<<(litLen[ls]+extra)
		tailLen[n] = litLen[ls] + extra + distLen[d]
	}
	for _, t := range e.tokens {
		switch s := t & 511; {
		case s < 256:
			e.write(uint64(litCode[s]), litLen[s])
		case s == runToken: // literals two a write (30 bits at most), then the match
			b0, b1, b2, b3 := t>>9&0xff, t>>17&0xff, t>>25&0xff, t>>33&0xff
			e.write(uint64(litCode[b0])|uint64(litCode[b1])<<litLen[b0], litLen[b0]+litLen[b1])
			v, n := uint64(litCode[b2]), litLen[b2]
			if e.bpp == 4 {
				e.write(v|uint64(litCode[b3])<<n, n+litLen[b3])
				v, n = 0, 0
			}
			e.writeLong(v|tail[t>>41]<<n, n+tailLen[t>>41])
		default:
			e.write(uint64(litCode[s])|uint64(t>>9&31)<<litLen[s], litLen[s]+lengthExtraBits[s-257])
			d := t >> 14 & 31
			e.write(uint64(distCode[d])|uint64(t>>19)<<distLen[d], distLen[d]+distExtraBits[d])
		}
	}
	e.write(uint64(litCode[256]), litLen[256])
	e.tokens, e.ntok, e.litFreq, e.distFreq = e.tokens[:0], 0, [286]uint32{}, [30]uint32{}
}

// writeLong is write for n <= 64.
func (e *pngEncoder) writeLong(v uint64, n uint8) {
	if n > 32 {
		e.write(v&(1<<32-1), 32)
		v, n = v>>32, n-32
	}
	e.write(v, n)
}

// write appends the low n bits of v (n <= 32) to the deflate stream.
func (e *pngEncoder) write(v uint64, n uint8) {
	e.bits |= v << e.nbits
	e.nbits += uint(n)
	if e.nbits >= 32 {
		e.out = binary.LittleEndian.AppendUint32(e.out, uint32(e.bits))
		e.bits >>= 32
		e.nbits -= 32
	}
}

// huffman sets lengths and codes to a Huffman code for freq of at most
// maxBits bits: built over the used symbols sorted by (frequency, symbol),
// and while too deep, rebuilt with the counts halved (each kept >= 1). An
// alphabet of fewer than two used symbols gets unused 0 or 1 beside, so
// every code is complete and any inflater takes it. The codes are RFC 1951
// §3.2.2's canonical ones, bit-reversed for the LSB-first stream.
func huffman(lengths []uint8, codes []uint16, freq []uint32, maxBits int32) {
	var buf [286]uint64
	var weights [286]int32
	keys := buf[:0]
	for s, f := range freq {
		if f > 0 {
			keys = append(keys, uint64(f)<<16|uint64(s))
		}
	}
	for s := 0; len(keys) < 2; s++ {
		if freq[s] == 0 {
			keys = append(keys, uint64(1)<<16|uint64(s))
		}
	}
	slices.Sort(keys)
	a := weights[:len(keys)]
	for shift := 16; shift == 16 || a[0] > maxBits; shift++ {
		for i, k := range keys {
			a[i] = int32(max(k>>shift, 1))
		}
		minimumRedundancy(a)
	}
	clear(lengths)
	var count, next [16]uint16
	for i, k := range keys {
		lengths[k&0xffff] = uint8(a[i])
		count[a[i]]++
	}
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for s, l := range lengths {
		if l > 0 {
			codes[s] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
		}
	}
}

// minimumRedundancy replaces a, n >= 2 ascending weights, by the lengths
// of an optimal prefix code, a[0] the longest (Moffat and Katajainen,
// "In-place calculation of minimum-redundancy codes", 1995).
func minimumRedundancy(a []int32) {
	n, root, leaf := len(a), 0, 0
	// Left to right: node next is the two lightest of the nodes made so far
	// and the leaves left, each node taken leaving its parent's index.
	lightest := func(next int) (w int32) {
		if leaf >= n || (root < next && a[root] < a[leaf]) {
			w, a[root] = a[root], int32(next)
			root++
			return w
		}
		leaf++
		return a[leaf-1]
	}
	for next := 0; next < n-1; next++ {
		a[next] = lightest(next) + lightest(next)
	}
	// Right to left: internal node depths, then leaf depths.
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	avail, used, depth := 1, 0, int32(0)
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for ; avail > used; avail-- {
			a[next] = depth
			next--
		}
		avail, used, depth = 2*used, 0, depth+1
	}
}

// EncodePNG writes the canvas as PNG to w, in one Write.
func (c *Canvas) EncodePNG(w io.Writer) error {
	e := pngEncoders.Get().(*pngEncoder)
	defer pngEncoders.Put(e)
	e.img = c.img
	if err := e.encode(c.Width(), c.Height()); err != nil {
		return err
	}
	_, err := w.Write(e.out)
	return err
}

// HeatmapPNG returns, byte for byte, what a w×h NewCanvas cleared to bg
// gives as PNG after RenderDendrogram of the AboveColumns strip
// right of the LeftOfRows one, then of that strip below it, then
// RenderHeatmap of rows over the rest — without the canvas: strip and
// raster runs, bg in the cell borders, go straight to the writer. Of two
// strips of one orientation the last counts. Merge heights must be finite
// and >= 0, as cluster's are: a bracket leaving its strip is cut at its edge.
func HeatmapPNG(w, h int, bg color.RGBA, rows [][]float64, opt HeatmapOptions, strips ...Dendrogram) ([]byte, error) {
	w, h = max(w, 0), max(h, 0)
	var by [2]Dendrogram
	for _, d := range strips {
		by[d.Orientation] = d
	}
	left, top, px := max(by[LeftOfRows].Size, 0), max(by[AboveColumns].Size, 0), pixelOf(bg)
	e := pngEncoders.Get().(*pngEncoder)
	defer pngEncoders.Put(e)
	e.strips[AboveColumns].init(by[AboveColumns], Rect{X: left, W: w - left, H: top}, w, h, px)
	e.strips[LeftOfRows].init(by[LeftOfRows], Rect{Y: top, W: left, H: h - top}, w, h, px)
	hw := w - e.strips[LeftOfRows].w
	e.heat.init(hw, h-e.strips[AboveColumns].h, rows, opt, 0, hw)
	e.heat.hole = px
	if err := e.encode(w, h); err != nil {
		return nil, err
	}
	// Exactly sized: a cache that charges len holds no more than it charged.
	return append(make([]byte, 0, len(e.out)), e.out...), nil
}

// tileRow returns row y of a HeatmapPNG tile, valid until the next call:
// the top strip's row across the tile, or the left strip's row and then
// the heatmap's, shifted by the strip's width.
func (e *pngEncoder) tileRow(y int) []run {
	top, left := &e.strips[AboveColumns], &e.strips[LeftOfRows]
	switch {
	case y < top.h:
		e.tile = top.appendRow(e.tile[:0], y)
	case left.w == 0:
		return e.heat.row(y - top.h)
	default:
		e.tile = left.appendRow(e.tile[:0], y-top.h)
		if left.w < e.w { // else the heatmap has no pixels
			for _, rn := range e.heat.row(y - top.h) {
				e.tile = add(e.tile, int(rn.end)+left.w, rn.px)
			}
		}
	}
	return e.tile
}

// SavePNG writes the canvas to a file.
func (c *Canvas) SavePNG(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	defer f.Close()
	if err := c.EncodePNG(f); err != nil {
		return err
	}
	return f.Close()
}
