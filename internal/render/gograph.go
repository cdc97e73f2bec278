package render

import (
	"image/color"

	"forestview/internal/golem"
)

// GOGraphOptions parameterize local-map rendering.
type GOGraphOptions struct {
	// NodeColor returns the fill for a term (e.g. enrichment-scaled); nil
	// means a neutral fill.
	NodeColor func(termID string) color.Color
	// Label returns the node caption; nil uses the term ID.
	Label func(termID string) string
	// Background, Edge and Text colors; zero values get sane defaults.
	Background color.Color
	Edge       color.Color
	Text       color.Color
}

// RenderGOGraph draws a laid-out local exploration map into rect: boxes for
// terms (focus terms get a double border), lines for is_a edges, captions
// clipped to the box. This is the Figure-5 view.
func RenderGOGraph(c *Canvas, r Rect, g *golem.Graph, lay *golem.Layout, opt GOGraphOptions) {
	if len(g.Nodes) == 0 || r.W <= 0 || r.H <= 0 {
		return
	}
	bg := opt.Background
	if bg == nil {
		bg = color.RGBA{R: 20, G: 20, B: 30, A: 255}
	}
	edgeCol := opt.Edge
	if edgeCol == nil {
		edgeCol = color.RGBA{R: 140, G: 140, B: 160, A: 255}
	}
	textCol := opt.Text
	if textCol == nil {
		textCol = color.RGBA{R: 230, G: 230, B: 230, A: 255}
	}
	c.FillRect(r.X, r.Y, r.W, r.H, bg)

	layerH := r.H / max(lay.LayerCount, 1)
	boxH := layerH * 2 / 3
	if boxH < 9 {
		boxH = minInt(9, layerH)
	}
	// Node center positions in pixels.
	center := func(id string) (int, int) {
		p := lay.Pos[id]
		width := len(lay.Layers[p.Layer])
		cx := r.X + (2*p.Col+1)*r.W/(2*max(width, 1))
		cy := r.Y + p.Layer*layerH + layerH/2
		return cx, cy
	}
	// Edges first so boxes overdraw them.
	for _, e := range g.Edges {
		x0, y0 := center(e[0])
		x1, y1 := center(e[1])
		c.Line(x0, y0, x1, y1, edgeCol)
	}
	for _, id := range g.Nodes {
		cx, cy := center(id)
		p := lay.Pos[id]
		width := len(lay.Layers[p.Layer])
		boxW := r.W/max(width, 1) - 4
		if boxW < 8 {
			boxW = 8
		}
		x := cx - boxW/2
		y := cy - boxH/2
		fill := color.Color(color.RGBA{R: 60, G: 60, B: 90, A: 255})
		if opt.NodeColor != nil {
			if col := opt.NodeColor(id); col != nil {
				fill = col
			}
		}
		c.FillRect(x, y, boxW, boxH, fill)
		c.StrokeRect(x, y, boxW, boxH, edgeCol)
		if g.Focus[id] {
			c.StrokeRect(x-2, y-2, boxW+4, boxH+4, textCol)
		}
		label := id
		if opt.Label != nil {
			label = opt.Label(id)
		}
		if boxH >= TextHeight(1)+2 && boxW >= GlyphWidth+2 {
			c.DrawTextClipped(x+2, y+(boxH-TextHeight(1))/2, label, 1, boxW-4, textCol)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
