package render

import (
	"bytes"
	"compress/zlib"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"forestview/internal/cluster"
)

// noisyCanvas paints cells of random size and colour; translucent adds
// premultiplied pixels of every alpha, fully transparent ones included.
func noisyCanvas(w, h int, seed int64, translucent bool) *Canvas {
	rng := rand.New(rand.NewSource(seed))
	c := NewCanvas(w, h, color.RGBA{A: 255})
	for i := 0; i < 8+w*h/16; i++ {
		col := color.Color(color.RGBA{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256)), A: 255})
		if translucent && rng.Intn(2) == 0 {
			col = color.NRGBA{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256)), A: uint8(rng.Intn(5) * 63)}
		}
		c.FillRect(rng.Intn(w), rng.Intn(h), 1+rng.Intn(1+w/3), 1+rng.Intn(1+h/3), col)
	}
	return c
}

// pixelCanvas is a w×h canvas whose pixels come from next, in raster order.
func pixelCanvas(w, h int, next func(i int) color.Color) *Canvas {
	c := NewCanvas(w, h, color.RGBA{})
	for i := 0; i < w*h; i++ {
		c.Set(i%w, i/w, next(i))
	}
	return c
}

// repeatRows makes row y of the canvas a copy of row y%period.
func repeatRows(c *Canvas, period int) *Canvas {
	img := c.Image()
	for y := period; y < img.Rect.Dy(); y++ {
		copy(img.Pix[y*img.Stride:][:4*img.Rect.Dx()], img.Pix[(y%period)*img.Stride:])
	}
	return c
}

// fibonacciCanvas is an opaque canvas of literals only — G alternates
// along a row and B down a column, so no pixel repeats its left or upper
// neighbour — whose R bytes have a Fibonacci histogram: value 4+k appears
// fib(k+2) times, k < 16, in a seeded order, value 20 fills the rest. With
// the end-of-block symbol as the second 1, every merge of a Huffman build
// pairs the last merge with the next leaf, so an unlimited code is deeper
// than deflate's 15 bits. The filter byte is 0, one of G's two values, so
// it does not break the chain.
func fibonacciCanvas() *Canvas {
	const w, h = 96, 62
	r := make([]byte, 0, w*h)
	for k, a, b := 0, 1, 2; k < 16; k, a, b = k+1, b, a+b {
		r = append(r, bytes.Repeat([]byte{byte(4 + k)}, a)...)
	}
	r = append(r, bytes.Repeat([]byte{20}, w*h-len(r))...)
	rand.New(rand.NewSource(13)).Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] })
	return pixelCanvas(w, h, func(i int) color.Color {
		return color.RGBA{R: r[i], G: byte(i % w % 2), B: byte(2 + i/w%2), A: 255}
	})
}

// checkDecodes: image/png decodes file to the canvas's pixels, in the
// colour type the canvas calls for — RGB when opaque, straight-alpha RGBA
// otherwise.
func checkDecodes(t *testing.T, name string, c *Canvas, file []byte) {
	t.Helper()
	got, err := png.Decode(bytes.NewReader(file))
	if err != nil {
		t.Fatalf("%s: image/png cannot decode it: %v", name, err)
	}
	src := c.Image()
	if _, isRGB := got.(*image.RGBA); isRGB != src.Opaque() { // image/png decodes 8-bit RGB into *image.RGBA, RGBA into *image.NRGBA
		t.Errorf("%s: decoded as %T for an opaque=%v canvas", name, got, src.Opaque())
	}
	if got.Bounds().Size() != src.Bounds().Size() {
		t.Fatalf("%s: decoded %v, want %v", name, got.Bounds().Size(), src.Bounds().Size())
	}
	for y := 0; y < src.Bounds().Dy(); y++ {
		for x := 0; x < src.Bounds().Dx(); x++ {
			want := color.NRGBAModel.Convert(src.At(src.Rect.Min.X+x, src.Rect.Min.Y+y))
			if have := color.NRGBAModel.Convert(got.At(x, y)); have != want {
				t.Fatalf("%s: pixel (%d,%d) = %v, want %v", name, x, y, have, want)
			}
		}
	}
}

// TestEncodePNGRoundTrip: whatever the canvas, image/png decodes the file
// to the same pixels, in the colour type the canvas calls for.
func TestEncodePNGRoundTrip(t *testing.T) {
	// A window into a larger image: non-zero Rect.Min and a stride wider
	// than the row.
	parent := noisyCanvas(40, 30, 5, false).Image()
	window := parent.SubImage(image.Rect(7, 5, 29, 22)).(*image.RGBA)
	rng := rand.New(rand.NewSource(17))
	randomRGB := func(int) color.Color {
		return color.RGBA{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256)), A: 255}
	}
	cases := []struct {
		name string
		c    *Canvas
	}{
		{"opaque", noisyCanvas(64, 48, 1, false)},
		{"translucent", noisyCanvas(64, 48, 2, true)},
		{"1x1", noisyCanvas(1, 1, 3, false)},
		{"1x1 translucent", NewCanvas(1, 1, color.NRGBA{R: 200, G: 10, B: 90, A: 77})},
		{"1xN", noisyCanvas(1, 37, 4, false)},
		{"Nx1", noisyCanvas(37, 1, 4, true)},
		{"repeated rows", NewCanvas(33, 20, color.RGBA{R: 3, G: 200, B: 7, A: 255})},
		{"subimage window", &Canvas{img: window}},
		// Stride 1+4·8192 = 32,769: one byte past the window, so equal rows
		// cannot be row matches and must be written as runs.
		{"8192-wide RGBA, identical rows", repeatRows(noisyCanvas(8192, 4, 6, true), 1)},
		{"rows repeating 3 back", repeatRows(noisyCanvas(50, 40, 7, false), 3)},
		{"rows repeating 5 back, translucent", repeatRows(noisyCanvas(50, 40, 8, true), 5)},
		// Literal 0 and one distance (bpp): a one-symbol alphabet each.
		{"one colour, one row", NewCanvas(300, 1, color.RGBA{A: 255})},
		{"one colour", NewCanvas(300, 200, color.RGBA{A: 255})},
		{"256 colours, no runs", pixelCanvas(256, 64, func(i int) color.Color {
			v := uint8(i + i/256) // neighbours differ, rows differ
			return color.RGBA{R: v, G: v * 7, B: v * 13, A: 255}
		})},
		{"Fibonacci byte histogram", fibonacciCanvas()},
		{"over 1<<16 tokens", pixelCanvas(200, 120, randomRGB)},
	}
	for _, tc := range cases {
		file, err := encodePNG(tc.c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkDecodes(t, tc.name, tc.c, file)
	}
	for _, c := range []*Canvas{NewCanvas(0, 0, color.RGBA{}), NewCanvas(0, 5, color.RGBA{}), NewCanvas(5, 0, color.RGBA{})} {
		if err := c.EncodePNG(&bytes.Buffer{}); err == nil {
			t.Errorf("%dx%d canvas encoded without error", c.Width(), c.Height())
		}
	}
}

// encodePNG is the canvas's file, as EncodePNG writes it.
func encodePNG(c *Canvas) ([]byte, error) {
	var buf bytes.Buffer
	err := c.EncodePNG(&buf)
	return buf.Bytes(), err
}

// TestEncodePNGDeterministic: the file depends on the pixels alone, not on
// what a pooled encoder wrote before or on who else is encoding — the
// server and the benchmark compare tiles byte for byte against a
// library-side encode.
func TestEncodePNGDeterministic(t *testing.T) {
	canvases := []*Canvas{noisyCanvas(256, 256, 7, false), noisyCanvas(31, 90, 8, true), noisyCanvas(300, 17, 9, false)}
	first := make([][]byte, len(canvases))
	for i, c := range canvases {
		var err error
		if first[i], err = encodePNG(c); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (i + g) % len(canvases)
				var buf bytes.Buffer
				if err := canvases[k].EncodePNG(&buf); err != nil || !bytes.Equal(buf.Bytes(), first[k]) {
					t.Errorf("goroutine %d encode %d of canvas %d differs from its first encoding (err %v)", g, i, k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// DecodePNG reads a PNG back into a canvas.
func DecodePNG(r io.Reader) (*Canvas, error) {
	img, err := png.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("render: decoding PNG: %w", err)
	}
	b := img.Bounds()
	out := image.NewRGBA(image.Rect(0, 0, b.Dx(), b.Dy()))
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			out.Set(x, y, img.At(b.Min.X+x, b.Min.Y+y))
		}
	}
	return &Canvas{img: out}, nil
}

// TestHuffmanLengthsLimited: code lengths stay within deflate's limits and
// form a complete prefix code — where an unlimited code would be deeper
// (Fibonacci counts, and the literals of the Fibonacci round-trip canvas)
// and for alphabets of one or no used symbols.
func TestHuffmanLengthsLimited(t *testing.T) {
	fib := make([]uint32, 30)
	for i := range fib {
		fib[i] = 1
		if i > 1 {
			fib[i] = fib[i-1] + fib[i-2]
		}
	}
	one := make([]uint32, 30)
	one[7] = 5
	canvas := make([]uint32, 286) // the block the writer codes: all literals
	img := fibonacciCanvas().Image()
	for i, b := range img.Pix {
		if i%4 != 3 {
			canvas[b]++
		}
	}
	canvas[0] += uint32(img.Rect.Dy()) // filter bytes
	canvas[256]++                      // end of block
	for _, tc := range []struct {
		name    string
		freq    []uint32
		maxBits int32
		binds   bool // an unlimited code would be deeper than maxBits
	}{
		{"fibonacci, 15 bits", fib, 15, true},
		{"fibonacci 19, 7 bits", fib[:19], 7, true},
		{"Fibonacci canvas literals", canvas, 15, true},
		{"one symbol", one, 15, false},
		{"no symbol", make([]uint32, 30), 15, false},
		{"uniform", slices.Repeat([]uint32{4}, 286), 15, false},
	} {
		var weights []int32
		for _, f := range tc.freq {
			if f > 0 {
				weights = append(weights, int32(f))
			}
		}
		if slices.Sort(weights); len(weights) >= 2 {
			minimumRedundancy(weights)
			if deeper := weights[0] > tc.maxBits; deeper != tc.binds {
				t.Errorf("%s: unlimited code %d bits deep, limit %d", tc.name, weights[0], tc.maxBits)
			}
		}
		lengths, codes := make([]uint8, len(tc.freq)), make([]uint16, len(tc.freq))
		huffman(lengths, codes, tc.freq, tc.maxBits)
		kraft, longest := 0, int32(0)
		for s, l := range lengths {
			if tc.freq[s] > 0 && l == 0 {
				t.Errorf("%s: used symbol %d has no code", tc.name, s)
			}
			if l > 0 {
				kraft += 1 << (tc.maxBits - int32(l))
				longest = max(longest, int32(l))
			}
		}
		if longest > tc.maxBits || kraft != 1<<tc.maxBits {
			t.Errorf("%s: longest code %d bits (limit %d), Kraft sum %d/%d", tc.name, longest, tc.maxBits, kraft, 1<<tc.maxBits)
		}
	}
}

// FuzzEncodePNG: any canvas of up to 64×64 encodes to a file image/png
// decodes to the same pixels, a second encode is byte-equal, and an encode
// allocates no more than a small multiple of the canvas. The input is
// width, height, an alpha flag and a row period, then (run length, pixel)
// pairs in raster order; rows past the input repeat the row period rows
// up. The seeds are in testdata/fuzz/FuzzEncodePNG.
func FuzzEncodePNG(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		w, h, alpha, period := 1+int(data[0]%64), 1+int(data[1]%64), data[2]&1 == 1, 1+int(data[3]%8)
		c := NewCanvas(w, h, color.RGBA{A: 255})
		pix := 3 // input bytes a pixel
		if alpha {
			pix = 4
		}
		i, in := 0, data[4:]
		for ; len(in) > pix && i < w*h; in = in[1+pix:] {
			col := color.NRGBA{R: in[1], G: in[2], B: in[3], A: 255}
			if alpha {
				col.A = in[4]
			}
			for n := 1 + int(in[0]%32); n > 0 && i < w*h; n, i = n-1, i+1 {
				c.Set(i%w, i/w, col)
			}
		}
		if y := (i + w - 1) / w; y > 0 && y < h {
			p := min(y, period)
			repeatRows(&Canvas{img: c.Image().SubImage(image.Rect(0, y-p, w, h)).(*image.RGBA)}, p)
		}

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		file, err := encodePNG(c)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			t.Fatal(err)
		}
		// A pooled encoder may be new (its token buffer and tables) or
		// have to grow; past that an encode is the returned file.
		if got, limit := ms1.TotalAlloc-ms0.TotalAlloc, uint64(8*4*w*h+1<<20); got > limit {
			t.Fatalf("a %dx%d canvas allocated %d bytes to encode (limit %d)", w, h, got, limit)
		}
		checkDecodes(t, "fuzz", c, file)
		again, err := encodePNG(c)
		if err != nil || !bytes.Equal(again, file) {
			t.Fatalf("second encode differs (err %v)", err)
		}
	})
}

// referenceEncodePNG is the writer EncodePNG replaced, kept as the size
// oracle: one filter decision per row (Up when the row equals the one
// above, else Sub) and compress/zlib at level 6, the level image/png uses.
func referenceEncodePNG(c *Canvas) []byte {
	img := c.Image()
	w, h := img.Rect.Dx(), img.Rect.Dy()
	bpp, colorType := 4, byte(6)
	if img.Opaque() {
		bpp, colorType = 3, 2
	}
	var out bytes.Buffer
	var ihdr [13]byte
	binary.BigEndian.PutUint32(ihdr[0:], uint32(w))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(h))
	ihdr[8], ihdr[9] = 8, colorType
	chunk := func(typ string, data []byte) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(data)))
		out.Write(n[:])
		body := append([]byte(typ), data...)
		out.Write(body)
		binary.BigEndian.PutUint32(n[:], crc32.ChecksumIEEE(body))
		out.Write(n[:])
	}
	var idat bytes.Buffer
	zw, _ := zlib.NewWriterLevel(&idat, 6) // errs on a bad level only
	row, straightRow := make([]byte, 1+bpp*w), make([]byte, 4*w)
	var prev []uint8
	for y := 0; y < h; y++ {
		cur := img.Pix[img.PixOffset(img.Rect.Min.X, img.Rect.Min.Y+y):][:4*w]
		if bytes.Equal(cur, prev) {
			row[0] = 2 // Up
			clear(row[1:])
		} else {
			row[0] = 1 // Sub
			src := cur
			if bpp == 4 {
				for x := 0; x < w; x++ {
					binary.LittleEndian.PutUint32(straightRow[4*x:], straight(pixel(cur, x)))
				}
				src = straightRow
			}
			copy(row[1:], src[:bpp])
			for s, d := 4, 1+bpp; s < len(src); s, d = s+4, d+bpp {
				for k := 0; k < bpp; k++ {
					row[d+k] = src[s+k] - src[s+k-4]
				}
			}
		}
		zw.Write(row)
		prev = cur
	}
	zw.Close()
	out.WriteString("\x89PNG\r\n\x1a\n")
	chunk("IHDR", ihdr[:])
	chunk("IDAT", idat.Bytes())
	chunk("IEND", nil)
	return out.Bytes()
}

// tileRows is the benchmark's tile fixture (bench_test.go tileBenchRows):
// nR×nC unit-normal values, 2% missing.
func tileRows(nR, nC int) [][]float64 {
	rng := rand.New(rand.NewSource(int64(nR*1000 + nC)))
	rows := make([][]float64, nR)
	for i := range rows {
		rows[i] = make([]float64, nC)
		for c := range rows[i] {
			rows[i][c] = rng.NormFloat64()
			if rng.Float64() < 0.02 {
				rows[i][c] = math.NaN()
			}
		}
	}
	return rows
}

// TestEncodePNGNoLargerThanDeflate6: on what the daemon serves, the
// writer's files are no larger than the level-6 oracle's, so the tile
// cache, sized in bytes, holds at least as many tiles. Measured (bytes,
// writer / oracle): the three BenchmarkF10 tile shapes 6,240 / 8,691,
// 7,013 / 10,043 and 21,577 / 29,486; a zoomed tile with tree and atree
// strips 8,437 / 10,771, which without the row-above spans of runs was
// 14,966 — a leaf's leg every other row keeps those rows from repeating.
//
// Two losses are written down here, not bounded; neither is ever a tile.
// Text: the label canvas below is 8,238 / 3,860 (2.1×), and label columns
// of consecutive or scattered gene IDs are 1.9-2.7×. Level 6 finds the
// glyphs two labels share anywhere in the lines above; runs, repeated rows
// and the row above cannot. In a whole scene text is a small share: the
// demo's 1600×900 forestview scene is 0.90× its level-6 file, 400×300
// 0.90×. And a lone gradient: a 256×40 legend is 845 / 320 (2.6×), since
// Sub turns a gradient into a constant while runs see no run in it.
func TestEncodePNGNoLargerThanDeflate6(t *testing.T) {
	opt := HeatmapOptions{ColorMap: GreenBlackRed, Limit: 2, CellBorder: true}
	tile := func(nR, nC int) *Canvas {
		c := NewCanvas(256, 256, color.RGBA{A: 255})
		RenderHeatmap(c, Rect{W: 256, H: 256}, tileRows(nR, nC), opt)
		return c
	}

	// A tile with tree=60 and atree=40, drawn the way the daemon draws it.
	raw := tileRows(100, 24)
	dense := make([][]float64, len(raw))
	for i, r := range raw {
		dense[i] = make([]float64, len(r))
		for j, v := range r {
			if !math.IsNaN(v) {
				dense[i][j] = v
			}
		}
	}
	cols := make([][]float64, 24)
	for j := range cols {
		for i := range dense {
			cols[j] = append(cols[j], dense[i][j])
		}
	}
	geneTree, err := cluster.HierarchicalCtx(context.Background(), dense, cluster.PearsonDist, cluster.AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	arrayTree, err := cluster.HierarchicalCtx(context.Background(), cols, cluster.PearsonDist, cluster.AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, len(raw)) // in the gene tree's display order
	for i, leaf := range geneTree.LeafOrder() {
		rows[i] = raw[leaf]
	}
	strips := NewCanvas(256, 256, color.RGBA{A: 255})
	fg := color.RGBA{R: 180, G: 180, B: 180, A: 255}
	RenderDendrogram(strips, Rect{X: 60, W: 196, H: 40}, arrayTree, AboveColumns, fg)
	RenderDendrogram(strips, Rect{Y: 40, W: 60, H: 216}, geneTree, LeftOfRows, fg)
	stripOpt := opt
	stripOpt.ColOrder = arrayTree.LeafOrder()
	RenderHeatmap(strips, Rect{X: 60, Y: 40, W: 196, H: 216}, rows, stripOpt)

	labels := NewCanvas(400, 300, color.RGBA{A: 255})
	names := make([]string, 30)
	for i := range names {
		names[i] = fmt.Sprintf("Y%cL%03dW  gene %d", 'A'+i%16, 7*i, i)
	}
	RenderRowLabels(labels, Rect{W: 400, H: 300}, names, color.RGBA{R: 255, G: 255, B: 255, A: 255})

	legend := NewCanvas(256, 40, color.RGBA{A: 255})
	GreenBlackRed.Legend(legend, Rect{W: 256, H: 40}, 2, color.RGBA{R: 255, G: 255, B: 255, A: 255})

	for _, tc := range []struct {
		name    string
		c       *Canvas
		bounded bool
	}{
		{"zoom-100x24", tile(100, 24), true},
		{"global-300x12", tile(300, 12), true},
		{"global-400x40", tile(400, 40), true},
		{"tree and atree strips", strips, true},
		{"row labels", labels, false},
		{"legend", legend, false},
	} {
		file, err := encodePNG(tc.c)
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceEncodePNG(tc.c)
		checkDecodes(t, tc.name+" (oracle)", tc.c, ref)
		report := t.Logf
		if tc.bounded && len(file) > len(ref) {
			report = t.Errorf
		}
		report("%s: %d bytes, the level-6 oracle %d (%.2fx)", tc.name, len(file), len(ref), float64(len(file))/float64(len(ref)))
	}
}
