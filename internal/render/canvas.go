// Package render is the headless rendering engine of the ForestView
// reproduction. The paper's system drew to Java2D surfaces spanning a
// projector wall; Go has no comparable interactive toolkit (a gate noted in
// the reproduction brief), so every view renders into an in-memory RGBA
// framebuffer instead. Pixels are pixels: resolution, layout, color mapping
// and render latency — the properties the paper's claims rest on — are all
// preserved, and the framebuffers can be written out as PNG or shipped to
// the simulated display wall.
package render

import (
	"image"
	"image/color"
)

// Canvas wraps an RGBA framebuffer with the small set of drawing
// primitives the views need. All operations clip to the canvas bounds.
//
// A canvas may carry a translation (see Translated): drawing at (x, y)
// lands at (x+offX, y+offY) in the framebuffer. Display-wall tiles use this
// to render their viewport of a wall-sized scene with ordinary scene
// coordinates — pixels outside the tile simply clip away.
type Canvas struct {
	img        *image.RGBA
	offX, offY int
}

// NewCanvas allocates a w×h canvas cleared to the given background.
func NewCanvas(w, h int, bg color.Color) *Canvas {
	if w < 0 {
		w = 0
	}
	if h < 0 {
		h = 0
	}
	c := &Canvas{img: image.NewRGBA(image.Rect(0, 0, w, h))}
	c.Fill(bg)
	return c
}

// Image returns the underlying image (shared).
func (c *Canvas) Image() *image.RGBA { return c.img }

// Width and Height return the canvas dimensions.
func (c *Canvas) Width() int  { return c.img.Bounds().Dx() }
func (c *Canvas) Height() int { return c.img.Bounds().Dy() }

// Fill paints the whole underlying framebuffer, regardless of translation.
func (c *Canvas) Fill(col color.Color) {
	b := c.img.Bounds()
	c.FillRect(b.Min.X-c.offX, b.Min.Y-c.offY, b.Dx(), b.Dy(), col)
}

// Translated returns a view of the same framebuffer whose origin is
// shifted by (dx, dy): drawing at scene coordinates lands dx/dy further
// into the buffer. Tiles render with Translated(-viewport.X, -viewport.Y).
func (c *Canvas) Translated(dx, dy int) *Canvas {
	return &Canvas{img: c.img, offX: c.offX + dx, offY: c.offY + dy}
}

// ClipBounds returns the writable region in logical (translated)
// coordinates. Renderers with per-pixel loops consult it to skip regions
// that would clip away anyway — the mechanism that lets a wall tile render
// only its own window of a wall-sized scene.
func (c *Canvas) ClipBounds() Rect {
	b := c.img.Bounds()
	return Rect{X: b.Min.X - c.offX, Y: b.Min.Y - c.offY, W: b.Dx(), H: b.Dy()}
}

// toRGBA converts once at the public boundary; everything below it takes
// a color.RGBA by value, so a per-pixel or per-cell caller neither boxes a
// colour into an interface nor pays a model conversion.
func toRGBA(col color.Color) color.RGBA {
	if rgba, ok := col.(color.RGBA); ok {
		return rgba
	}
	return color.RGBAModel.Convert(col).(color.RGBA)
}

// Set writes one pixel, silently clipping out-of-bounds writes.
func (c *Canvas) Set(x, y int, col color.Color) { c.fillRect(x, y, 1, 1, toRGBA(col)) }

// At reads one pixel; out-of-bounds reads return opaque black.
func (c *Canvas) At(x, y int) color.RGBA {
	x, y = x+c.offX, y+c.offY
	if !(image.Point{X: x, Y: y}).In(c.img.Bounds()) {
		return color.RGBA{A: 255}
	}
	return c.img.RGBAAt(x, y)
}

// FillRect fills the axis-aligned rectangle with origin (x,y).
func (c *Canvas) FillRect(x, y, w, h int, col color.Color) { c.fillRect(x, y, w, h, toRGBA(col)) }

func (c *Canvas) fillRect(x, y, w, h int, rgba color.RGBA) {
	x, y = x+c.offX, y+c.offY
	r := image.Rect(x, y, x+w, y+h).Intersect(c.img.Bounds())
	if r.Empty() {
		return
	}
	// Paint the first row, then copy it down.
	base := c.img.PixOffset(r.Min.X, r.Min.Y)
	first := c.img.Pix[base : base+4*r.Dx()]
	fillRun(first, rgba)
	for yy := r.Min.Y + 1; yy < r.Max.Y; yy++ {
		base += c.img.Stride
		copy(c.img.Pix[base:], first)
	}
}

// fillRun paints every 4-byte pixel of run, a slice of Pix.
func fillRun(run []uint8, rgba color.RGBA) {
	for i := 0; i+3 < len(run); i += 4 {
		run[i], run[i+1], run[i+2], run[i+3] = rgba.R, rgba.G, rgba.B, rgba.A
	}
}

// StrokeRect draws a 1-pixel rectangle outline.
func (c *Canvas) StrokeRect(x, y, w, h int, col color.Color) {
	if w <= 0 || h <= 0 {
		return
	}
	c.HLine(x, x+w-1, y, col)
	c.HLine(x, x+w-1, y+h-1, col)
	c.VLine(x, y, y+h-1, col)
	c.VLine(x+w-1, y, y+h-1, col)
}

// HLine draws a horizontal line from x0 to x1 inclusive at row y.
func (c *Canvas) HLine(x0, x1, y int, col color.Color) {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	c.FillRect(x0, y, x1-x0+1, 1, col)
}

// VLine draws a vertical line from y0 to y1 inclusive at column x.
func (c *Canvas) VLine(x, y0, y1 int, col color.Color) {
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	c.FillRect(x, y0, 1, y1-y0+1, col)
}

// Line draws an arbitrary segment with Bresenham's algorithm.
func (c *Canvas) Line(x0, y0, x1, y1 int, col color.Color) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		c.Set(x0, y0, col)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

// Blit copies src onto the canvas with its top-left corner at (x, y).
func (c *Canvas) Blit(src *image.RGBA, x, y int) {
	sb := src.Bounds()
	x, y = x+c.offX, y+c.offY
	b := c.img.Bounds()
	for yy := 0; yy < sb.Dy(); yy++ {
		dy := y + yy
		if dy < b.Min.Y || dy >= b.Max.Y {
			continue
		}
		for xx := 0; xx < sb.Dx(); xx++ {
			dx := x + xx
			if dx < b.Min.X || dx >= b.Max.X {
				continue
			}
			c.img.SetRGBA(dx, dy, src.RGBAAt(sb.Min.X+xx, sb.Min.Y+yy))
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Rect is an integer viewport used by the view renderers.
type Rect struct {
	X, Y, W, H int
}
