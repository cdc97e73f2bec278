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
	colOrder := opt.ColOrder
	hl := opt.HighlightColor
	if hl == nil {
		hl = color.RGBA{R: 255, G: 255, B: 255, A: 255}
	}

	// Per-pixel loops respect the canvas clip so a wall tile only pays for
	// its own viewport.
	clip := c.ClipBounds()
	pyLo, pyHi := 0, r.H
	if r.Y < clip.Y {
		pyLo = clip.Y - r.Y
	}
	if r.Y+r.H > clip.Y+clip.H {
		pyHi = clip.Y + clip.H - r.Y
	}
	pxLo, pxHi := 0, r.W
	if r.X < clip.X {
		pxLo = clip.X - r.X
	}
	if r.X+r.W > clip.X+clip.W {
		pxHi = clip.X + clip.W - r.X
	}
	if pyLo >= pyHi || pxLo >= pxHi {
		return
	}

	if nR >= r.H {
		// Global view: each pixel row aggregates >= 1 gene rows.
		for py := pyLo; py < pyHi; py++ {
			lo := py * nR / r.H
			hi := (py + 1) * nR / r.H
			if hi <= lo {
				hi = lo + 1
			}
			anyHL := false
			for px := pxLo; px < pxHi; px++ {
				cLo := px * nC / r.W
				cHi := (px + 1) * nC / r.W
				if cHi <= cLo {
					cHi = cLo + 1
				}
				sum, n := 0.0, 0
				for gr := lo; gr < hi && gr < nR; gr++ {
					row := rows[gr]
					for cc := cLo; cc < cHi; cc++ {
						dc := cc
						if colOrder != nil {
							dc = colOrder[cc]
						}
						if dc >= 0 && dc < len(row) {
							if v := row[dc]; !math.IsNaN(v) {
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
				c.Set(r.X+px, r.Y+py, opt.ColorMap.Map(v, opt.Limit))
			}
			if opt.Highlight != nil {
				for gr := lo; gr < hi && gr < nR; gr++ {
					if opt.Highlight[gr] {
						anyHL = true
						break
					}
				}
			}
			if anyHL {
				// Selection tick marks at both edges of the strip.
				c.FillRect(r.X, r.Y+py, 3, 1, hl)
				c.FillRect(r.X+r.W-3, r.Y+py, 3, 1, hl)
			}
		}
		return
	}

	// Zoom view: each gene row gets >= 1 pixel rows.
	cellH := r.H / nR
	if cellH < 1 {
		cellH = 1
	}
	cellW := r.W / nC
	if cellW < 1 {
		cellW = 1
	}
	border := opt.CellBorder && cellH >= 3 && cellW >= 3
	for gr := 0; gr < nR; gr++ {
		y := r.Y + gr*r.H/nR
		h := r.Y + (gr+1)*r.H/nR - y
		if h < 1 {
			h = 1
		}
		row := rows[gr]
		for cc := 0; cc < nC; cc++ {
			x := r.X + cc*r.W/nC
			w := r.X + (cc+1)*r.W/nC - x
			if w < 1 {
				w = 1
			}
			dc := cc
			if colOrder != nil {
				dc = colOrder[cc]
			}
			v := math.NaN()
			if dc >= 0 && dc < len(row) {
				v = row[dc]
			}
			col := opt.ColorMap.Map(v, opt.Limit)
			if border {
				c.FillRect(x, y, w-1, h-1, col)
			} else {
				c.FillRect(x, y, w, h, col)
			}
		}
		if opt.Highlight != nil && opt.Highlight[gr] {
			c.FillRect(r.X, y, 3, h, hl)
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

// RenderColumnLabels draws experiment names vertically condensed: one
// character column per experiment is impossible with a bitmap font, so the
// names render horizontally, clipped, in slanted stagger rows.
func RenderColumnLabels(c *Canvas, r Rect, labels []string, fg color.Color) {
	n := len(labels)
	if n == 0 || r.W <= 0 || r.H <= 0 {
		return
	}
	colW := r.W / n
	if colW < 4 {
		return
	}
	rowsAvail := r.H / TextHeight(1)
	if rowsAvail < 1 {
		return
	}
	for i, lab := range labels {
		x := r.X + i*r.W/n
		y := r.Y + (i%rowsAvail)*TextHeight(1)
		c.DrawTextClipped(x, y, lab, 1, r.W-(x-r.X), fg)
	}
}
