package render

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"image"
	"image/png"
	"io"
	"os"
	"slices"
	"sync"
)

// pngLevel is the one deflate level every canvas is written at: the level
// image/png used, so files stay about the size they were (median over the
// 200 traced tiles of the repo benchmark's tile-cold workload: 1.01× on one
// seed, 1.05× on another) and a tile cache sized for yesterday's tiles
// holds as many of today's. With one filter decision per row and a pooled
// deflater that is 1.5-2.4 ms per 256×256 tile on the three
// BenchmarkF10_TileEncodePNG shapes, where image/png took 2.5-4.3 ms.
// Level 3 would take 0.6-1.8 ms at 1.04-1.08× the bytes, level 2 less at
// 1.13×; DESIGN.md §8 has the table and why the faster level is a later,
// separate step.
const pngLevel = 6

// pngEncoder is the reusable state of one encode: the deflate window and
// hash chains (the 870 KB image/png allocates per call), the filtered row
// and the finished file. Encoders live in a sync.Pool, so there are as many
// as there are concurrent encodes — the render and prefetch workers — and
// each holds one buffer that grows to the largest file it has written.
type pngEncoder struct {
	zw            *zlib.Writer
	row, straight []byte
	out           bytes.Buffer
}

var pngEncoders = sync.Pool{New: func() any {
	zw, _ := zlib.NewWriterLevel(io.Discard, pngLevel) // errs on a bad level only
	return &pngEncoder{zw: zw}
}}

// pngHead is everything before the IDAT payload: signature, IHDR chunk
// (length, type, 13 bytes, CRC) and the IDAT chunk's length and type.
const pngHead = 8 + (8 + 13 + 4) + 8

// encode writes the canvas into e.out as a complete PNG file: 8-bit RGB
// when every pixel is opaque, RGBA otherwise, in a single IDAT chunk. A
// canvas is flat runs (heatmap cells, dendrogram lines, text), so each row
// gets one filter decision instead of image/png's five trial filters: Up
// when the row equals the one above (every repeated row of the zoom regime
// becomes zeros), else Sub (every run becomes zeros after its first pixel).
// Rows stream through the deflater one at a time; nothing the size of the
// image is held besides the output. The bytes depend on the pixels alone —
// Reset returns the deflater to its initial state — so equal canvases
// encode equal, first use or hundredth.
func (c *Canvas) encode(e *pngEncoder) error {
	b := c.img.Bounds()
	w, h := b.Dx(), b.Dy()
	if w <= 0 || h <= 0 {
		return fmt.Errorf("render: encoding PNG: invalid image size %dx%d", w, h)
	}
	bpp, colorType := 4, byte(6)
	if c.img.Opaque() {
		bpp, colorType = 3, 2
	}

	e.out.Reset()
	var head [pngHead]byte
	copy(head[:], "\x89PNG\r\n\x1a\n\x00\x00\x00\x0dIHDR")
	binary.BigEndian.PutUint32(head[16:], uint32(w))
	binary.BigEndian.PutUint32(head[20:], uint32(h))
	head[24], head[25] = 8, colorType
	binary.BigEndian.PutUint32(head[29:], crc32.ChecksumIEEE(head[12:29]))
	copy(head[37:], "IDAT") // its length, head[33:37], is patched in below
	e.out.Write(head[:])

	e.zw.Reset(&e.out)
	e.row = slices.Grow(e.row[:0], 1+bpp*w)[:1+bpp*w]
	var prev []uint8
	for y := b.Min.Y; y < b.Max.Y; y++ {
		off := c.img.PixOffset(b.Min.X, y)
		cur := c.img.Pix[off : off+4*w]
		if bytes.Equal(cur, prev) {
			e.row[0] = 2 // Up
			clear(e.row[1:])
		} else {
			e.row[0] = 1 // Sub
			src := cur
			if bpp == 4 {
				src = e.unpremultiplied(cur)
			}
			dst := e.row[1:]
			copy(dst, src[:bpp])
			for s, d := 4, bpp; s < len(src); s, d = s+4, d+bpp {
				dst[d], dst[d+1], dst[d+2] = src[s]-src[s-4], src[s+1]-src[s-3], src[s+2]-src[s-2]
				if bpp == 4 {
					dst[d+3] = src[s+3] - src[s-1]
				}
			}
		}
		if _, err := e.zw.Write(e.row); err != nil {
			return fmt.Errorf("render: encoding PNG: %w", err)
		}
		prev = cur
	}
	if err := e.zw.Close(); err != nil {
		return fmt.Errorf("render: encoding PNG: %w", err)
	}

	file := e.out.Bytes()
	idat := file[pngHead-4:] // chunk type + payload: what the CRC covers
	binary.BigEndian.PutUint32(file[pngHead-8:], uint32(len(idat)-4))
	var tail [4 + 12]byte
	binary.BigEndian.PutUint32(tail[:], crc32.ChecksumIEEE(idat))
	copy(tail[4:], "\x00\x00\x00\x00IEND\xae\x42\x60\x82")
	e.out.Write(tail[:])
	return nil
}

// unpremultiplied converts a row of image.RGBA's alpha-premultiplied pixels
// to PNG's straight alpha, rounding as color.NRGBAModel does.
func (e *pngEncoder) unpremultiplied(row []uint8) []uint8 {
	e.straight = append(e.straight[:0], row...)
	for i := 0; i < len(row); i += 4 {
		switch a := uint32(row[i+3]) * 0x101; a {
		case 0xffff:
		case 0:
			clear(e.straight[i : i+3])
		default:
			for k := i; k < i+3; k++ {
				e.straight[k] = uint8(uint32(row[k]) * 0x101 * 0xffff / a >> 8)
			}
		}
	}
	return e.straight
}

// EncodePNG writes the canvas as PNG to w, in one Write.
func (c *Canvas) EncodePNG(w io.Writer) error {
	e := pngEncoders.Get().(*pngEncoder)
	defer pngEncoders.Put(e)
	if err := c.encode(e); err != nil {
		return err
	}
	_, err := w.Write(e.out.Bytes())
	return err
}

// PNG returns the canvas as a PNG file in a slice of exactly its length,
// so a cache that charges len holds no more than it charged for.
func (c *Canvas) PNG() ([]byte, error) {
	e := pngEncoders.Get().(*pngEncoder)
	defer pngEncoders.Put(e)
	if err := c.encode(e); err != nil {
		return nil, err
	}
	file := make([]byte, e.out.Len())
	copy(file, e.out.Bytes())
	return file, nil
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

// DecodePNG reads a PNG back into a canvas (tests use this to round-trip).
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
	return FromImage(out), nil
}
