package render

import (
	"image/color"
	"math"
)

// ColorMap converts a log-ratio expression value into a display color. The
// classic microarray convention is green (repressed) through black
// (unchanged) to red (induced); TreeView also offered blue-yellow for the
// red/green color-blind. Missing values render as neutral gray, visually
// distinct from "measured as zero".
type ColorMap int

const (
	// GreenBlackRed is the Eisen heatmap standard.
	GreenBlackRed ColorMap = iota
	// BlueYellow maps low to blue, high to yellow through black.
	BlueYellow
	// Grayscale maps low to black, high to white (useful for print).
	Grayscale
)

// MissingColor is the color of unmeasured cells.
var MissingColor = color.RGBA{R: 120, G: 120, B: 120, A: 255}

// String names the colormap.
func (m ColorMap) String() string {
	switch m {
	case GreenBlackRed:
		return "green-black-red"
	case BlueYellow:
		return "blue-black-yellow"
	case Grayscale:
		return "grayscale"
	default:
		return "unknown"
	}
}

// contrastLimit is the saturation limit Map and Legend draw with: limit
// when positive, else 2 (±2 log2 units ≈ 4-fold change, TreeView's default
// contrast) — so a saved session without one colours and labels alike.
func contrastLimit(limit float64) float64 {
	if !(limit > 0) { // non-positive or NaN
		return 2
	}
	return limit
}

// Map converts value v to a color, saturating at ±limit (see
// contrastLimit for a limit that is not positive). NaN maps to
// MissingColor.
func (m ColorMap) Map(v, limit float64) color.RGBA {
	return rgbaOf(m.word(v, contrastLimit(limit)))
}

// word is Map's colour as a pixel word (R in the low byte, as image.RGBA
// lays it out) under a limit contrastLimit already resolved.
func (m ColorMap) word(v, limit float64) uint32 {
	if v != v {
		return pixelOf(MissingColor)
	}
	t := v / limit
	if t > 1 {
		t = 1
	}
	if t < -1 {
		t = -1
	}
	// The sign picks the channels without a branch to mispredict: at -0
	// (and NaN, from ±Inf over an infinite limit) mag is 0 and both sides
	// are black.
	mag, neg := round255(math.Abs(t)*255), uint32(0)
	if t < 0 {
		neg = 1
	}
	switch m {
	case BlueYellow:
		return opaque | (1-neg)*(mag<<8|mag) | neg*mag<<16
	case Grayscale:
		g := round255((t + 1) / 2 * 255)
		return opaque | g<<16 | g<<8 | g
	default: // GreenBlackRed
		return opaque | mag<<(8*neg)
	}
}

// round255 is uint8(math.Round(x)) for x in [0, 255]: x + 0.5 truncated.
// The sum rounds only where its integer part stays put, but for x just
// under a half, which rounds to 0.
func round255(x float64) uint32 {
	i := uint32(int(x + 0.5))
	if x < 0.5 {
		i = 0
	}
	return i & 0xff
}

const opaque = 0xff << 24

// pixelOf and rgbaOf convert between a colour and its pixel word.
func pixelOf(c color.RGBA) uint32 {
	return uint32(c.R) | uint32(c.G)<<8 | uint32(c.B)<<16 | uint32(c.A)<<24
}

func rgbaOf(p uint32) color.RGBA {
	return color.RGBA{R: uint8(p), G: uint8(p >> 8), B: uint8(p >> 16), A: uint8(p >> 24)}
}

// Legend renders a horizontal color scale with tick labels into the rect,
// used by pane footers. It scales by the limit Map uses.
func (m ColorMap) Legend(c *Canvas, r Rect, limit float64, fg color.Color) {
	if r.W <= 0 || r.H <= 0 {
		return
	}
	limit = contrastLimit(limit)
	barH := r.H
	if barH > 10 {
		barH = r.H - TextHeight(1) - 2
	}
	for x := 0; x < r.W; x++ {
		t := (float64(x)/float64(max(r.W-1, 1)))*2 - 1
		col := m.Map(t*limit, limit)
		c.fillRect(r.X+x, r.Y, 1, barH, col)
	}
	if r.H > 10 {
		c.DrawText(r.X, r.Y+barH+2, formatLimit(-limit), 1, fg)
		mid := "0"
		c.DrawText(r.X+r.W/2-TextWidth(mid, 1)/2, r.Y+barH+2, mid, 1, fg)
		right := formatLimit(limit)
		c.DrawText(r.X+r.W-TextWidth(right, 1), r.Y+barH+2, right, 1, fg)
	}
}

func formatLimit(v float64) string {
	// One decimal is plenty for a legend label.
	neg := v < 0
	if neg {
		v = -v
	}
	whole := int(v)
	tenth := int(math.Round((v - float64(whole)) * 10))
	if tenth == 10 {
		whole++
		tenth = 0
	}
	s := itoa(whole) + "." + itoa(tenth)
	if neg {
		return "-" + s
	}
	return s
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
