package render

import (
	"bytes"
	"image"
	"image/color"
	"image/png"
	"math/rand"
	"sync"
	"testing"
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

// TestEncodePNGRoundTrip: whatever the canvas, image/png decodes the file
// to the same pixels, in the colour type the canvas calls for — RGB when
// opaque, straight-alpha RGBA otherwise.
func TestEncodePNGRoundTrip(t *testing.T) {
	// A window into a larger image: non-zero Rect.Min and a stride wider
	// than the row.
	parent := noisyCanvas(40, 30, 5, false).Image()
	window := parent.SubImage(image.Rect(7, 5, 29, 22)).(*image.RGBA)
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
		{"subimage window", FromImage(window)},
	}
	for _, tc := range cases {
		file, err := tc.c.PNG()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if cap(file) != len(file) {
			t.Errorf("%s: PNG() returned cap %d for len %d", tc.name, cap(file), len(file))
		}
		var streamed bytes.Buffer
		if err := tc.c.EncodePNG(&streamed); err != nil || !bytes.Equal(streamed.Bytes(), file) {
			t.Fatalf("%s: EncodePNG wrote different bytes than PNG() (err %v)", tc.name, err)
		}
		got, err := png.Decode(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("%s: image/png cannot decode it: %v", tc.name, err)
		}
		src := tc.c.Image()
		if _, isRGB := got.(*image.RGBA); isRGB != src.Opaque() { // image/png decodes 8-bit RGB into *image.RGBA, RGBA into *image.NRGBA
			t.Errorf("%s: decoded as %T for an opaque=%v canvas", tc.name, got, src.Opaque())
		}
		if got.Bounds().Size() != src.Bounds().Size() {
			t.Fatalf("%s: decoded %v, want %v", tc.name, got.Bounds().Size(), src.Bounds().Size())
		}
		for y := 0; y < src.Bounds().Dy(); y++ {
			for x := 0; x < src.Bounds().Dx(); x++ {
				want := color.NRGBAModel.Convert(src.At(src.Rect.Min.X+x, src.Rect.Min.Y+y))
				if have := color.NRGBAModel.Convert(got.At(x, y)); have != want {
					t.Fatalf("%s: pixel (%d,%d) = %v, want %v", tc.name, x, y, have, want)
				}
			}
		}
	}
	for _, c := range []*Canvas{NewCanvas(0, 0, color.RGBA{}), NewCanvas(0, 5, color.RGBA{}), NewCanvas(5, 0, color.RGBA{})} {
		if err := c.EncodePNG(&bytes.Buffer{}); err == nil {
			t.Errorf("%dx%d canvas encoded without error", c.Width(), c.Height())
		}
	}
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
		if first[i], err = c.PNG(); err != nil {
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
