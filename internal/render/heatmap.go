package render

import (
	"image/color"
	"math"
)

// HeatmapOptions parameterize expression-matrix rendering.
type HeatmapOptions struct {
	// ColorMap and Limit control the value-to-color transfer.
	ColorMap ColorMap
	Limit    float64
	// CellBorder draws 1-pixel separators when cells are at least 3px.
	CellBorder bool
	// Highlight rows are overdrawn with a marker line at the left edge,
	// the way ForestView's global view marks selected genes in every pane.
	Highlight map[int]bool
	// HighlightColor defaults to white.
	HighlightColor color.Color
	// ColOrder, when non-nil, maps display column -> data column (an array
	// tree's leaf order), so columns render in dendrogram order without
	// permuting the rows themselves.
	ColOrder []int
}

// RenderHeatmap draws rows (gene × experiment values, in display order)
// into rect. Cells scale to fill the rect; with more rows than pixels,
// multiple rows collapse into one pixel row (the "global view" regime of
// the paper: a whole genome in a strip), taking the mean of observed
// values.
func RenderHeatmap(c *Canvas, r Rect, rows [][]float64, opt HeatmapOptions) {
	nR := len(rows)
	if nR == 0 || r.W <= 0 || r.H <= 0 {
		return
	}
	nC := 0
	if opt.ColOrder != nil {
		nC = len(opt.ColOrder)
	} else {
		for _, row := range rows {
			if len(row) > nC {
				nC = len(row)
			}
		}
	}
	if nC == 0 {
		return
	}
	hl := color.RGBA{R: 255, G: 255, B: 255, A: 255}
	if opt.HighlightColor != nil {
		hl = toRGBA(opt.HighlightColor)
	}

	if nR >= r.H {
		renderGlobal(c, r, rows, nC, opt, hl)
		return
	}

	// Zoom view: each gene row gets >= 1 pixel rows.
	border := opt.CellBorder && r.H/nR >= 3 && r.W/nC >= 3
	for gr, row := range rows {
		y := r.Y + gr*r.H/nR
		h := r.Y + (gr+1)*r.H/nR - y
		for cc := 0; cc < nC; cc++ {
			x := r.X + cc*r.W/nC
			w := max(r.X+(cc+1)*r.W/nC-x, 1)
			dc := cc
			if opt.ColOrder != nil {
				dc = opt.ColOrder[cc]
			}
			v := math.NaN()
			if dc >= 0 && dc < len(row) {
				v = row[dc]
			}
			col := opt.ColorMap.Map(v, opt.Limit)
			if border {
				c.fillRect(x, y, w-1, h-1, col)
			} else {
				c.fillRect(x, y, w, h, col)
			}
		}
		if opt.Highlight[gr] {
			c.fillRect(r.X, y, 3, h, hl)
		}
	}
}

// renderGlobal is the global-view regime: each pixel row aggregates >= 1
// gene rows. All pixels of a pixel row that map to the same column span
// [cLo, cHi) share one aggregate, so the spans (at most min(nC, r.W) of
// them) are cut once per call and each (pixel row, span) is summed and
// colour-mapped once — rows outermost, columns innermost, the order the
// per-pixel reference in heatmap_test.go sums in, so Pix is bit-identical —
// and its run is painted straight into Pix. The loops cover only the part
// of r inside the canvas clip, so a wall tile pays for its own viewport.
func renderGlobal(c *Canvas, r Rect, rows [][]float64, nC int, opt HeatmapOptions, hl color.RGBA) {
	clip := c.ClipBounds()
	pyLo, pyHi := max(0, clip.Y-r.Y), min(r.H, clip.Y+clip.H-r.Y)
	pxLo, pxHi := max(0, clip.X-r.X), min(r.W, clip.X+clip.W-r.X)
	if pyLo >= pyHi || pxLo >= pxHi {
		return
	}
	type span struct{ pxLo, pxHi, cLo, cHi int }
	var spans []span
	for px := pxLo; px < pxHi; px++ {
		cLo := px * nC / r.W
		cHi := max((px+1)*nC/r.W, cLo+1)
		if n := len(spans); n > 0 && spans[n-1].cLo == cLo && spans[n-1].cHi == cHi {
			spans[n-1].pxHi = px + 1
		} else {
			spans = append(spans, span{px, px + 1, cLo, cHi})
		}
	}
	nR := len(rows)
	for py := pyLo; py < pyHi; py++ {
		lo := py * nR / r.H
		hi := (py + 1) * nR / r.H // > lo: nR >= r.H
		base := c.img.PixOffset(r.X+c.offX, r.Y+py+c.offY)
		for _, sp := range spans {
			sum, n := 0.0, 0
			for _, row := range rows[lo:hi] {
				for cc := sp.cLo; cc < sp.cHi; cc++ {
					dc := cc
					if opt.ColOrder != nil {
						dc = opt.ColOrder[cc]
					}
					if dc >= 0 && dc < len(row) {
						if v := row[dc]; v == v {
							sum += v
							n++
						}
					}
				}
			}
			v := math.NaN()
			if n > 0 {
				v = sum / float64(n)
			}
			fillRun(c.img.Pix[base+4*sp.pxLo:base+4*sp.pxHi], opt.ColorMap.Map(v, opt.Limit))
		}
		anyHL := false
		for gr := lo; gr < hi && !anyHL; gr++ {
			anyHL = opt.Highlight[gr]
		}
		if anyHL {
			// Selection tick marks at both edges of the strip.
			c.fillRect(r.X, r.Y+py, 3, 1, hl)
			c.fillRect(r.X+r.W-3, r.Y+py, 3, 1, hl)
		}
	}
}

// RenderRowLabels draws per-row text labels (gene IDs/names) next to a zoom
// view whose rows are laid out like RenderHeatmap's zoom regime.
func RenderRowLabels(c *Canvas, r Rect, labels []string, fg color.Color) {
	n := len(labels)
	if n == 0 || r.H <= 0 {
		return
	}
	scale := 1
	rowH := r.H / n
	if rowH < TextHeight(1) {
		// Too dense for text; draw nothing (TreeView hides labels when
		// zoomed out too).
		return
	}
	for i, lab := range labels {
		y := r.Y + i*r.H/n + (rowH-TextHeight(scale))/2
		c.DrawTextClipped(r.X, y, lab, scale, r.W, fg)
	}
}
