package render

import (
	"image/color"
	"math"
	"sync"
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
// values. It paints heatRaster's runs, over the part of r inside the
// canvas clip, so a wall tile pays for its own viewport.
func RenderHeatmap(c *Canvas, r Rect, rows [][]float64, opt HeatmapOptions) {
	clip := c.ClipBounds()
	xLo, xHi := max(0, clip.X-r.X), min(r.W, clip.X+clip.W-r.X)
	pyLo, pyHi := max(0, clip.Y-r.Y), min(r.H, clip.Y+clip.H-r.Y)
	hr := heatRasters.Get().(*heatRaster)
	defer func() {
		hr.unpin()
		heatRasters.Put(hr)
	}()
	hr.init(r.W, r.H, rows, opt, xLo, xHi)
	if hr.rows == nil || xLo >= xHi {
		return
	}
	// The hole is a word no run paints: Map's colours are opaque, and it is
	// not the tick marks' colour.
	if hr.hole = 0; hr.hl == 0 {
		hr.hole = 1
	}
	for py := pyLo; py < pyHi; py++ {
		base := c.img.PixOffset(r.X+c.offX, r.Y+py+c.offY)
		x := xLo
		for _, rn := range hr.row(py) {
			if rn.px != hr.hole {
				fillRun(c.img.Pix[base+4*x:base+4*int(rn.end)], rn.px)
			}
			x = int(rn.end)
		}
	}
}

// heatRaster is the one heatmap raster: pixel row py of a w×h rect, over
// the columns [xLo, xHi) of the rect (all of them, or a clip), as maximal
// runs of one pixel word. Pixels it does not paint (cell borders) are runs
// of hole; tick marks 3 pixels wide are cut to the rect. RenderHeatmap paints the runs into a canvas; HeatmapPNG
// hands them, with hole the background, to the PNG writer.
type heatRaster struct {
	w, h, nC  int
	rows      [][]float64 // nil: nothing is drawn
	xLo, xHi  int
	cmap      ColorMap
	limit     float64 // resolved by contrastLimit
	colOrder  []int
	highlight map[int]bool
	hl, hole  uint32
	border    bool

	// Global regime: the columns inside [0, w) that map to one column span
	// [cLo, cHi) share one aggregate, so the spans (at most min(nC, w)) are
	// cut once.
	spans []span
	// Zoom regime: the runs of the gene row last laid out, which every
	// pixel row of it but a border row repeats.
	cellsGr int
	cells   []run
	// A row with tick marks laid over it, and the buffer tick swaps in.
	out, spare []run
}

type span struct{ pxHi, cLo, cHi int }

var heatRasters = sync.Pool{New: func() any { return new(heatRaster) }}

// init sets up the raster, but for its hole; rows is left nil when
// RenderHeatmap would draw nothing.
func (hr *heatRaster) init(w, h int, rows [][]float64, opt HeatmapOptions, xLo, xHi int) {
	hl := pixelOf(color.RGBA{R: 255, G: 255, B: 255, A: 255})
	if opt.HighlightColor != nil {
		hl = pixelOf(toRGBA(opt.HighlightColor))
	}
	nC := len(opt.ColOrder)
	if opt.ColOrder == nil {
		for _, row := range rows {
			nC = max(nC, len(row))
		}
	}
	*hr = heatRaster{
		w: w, h: h, nC: nC, xLo: xLo, xHi: xHi, cmap: opt.ColorMap, limit: contrastLimit(opt.Limit),
		colOrder: opt.ColOrder, highlight: opt.Highlight, hl: hl, cellsGr: -1,
		spans: hr.spans[:0], cells: hr.cells[:0], out: hr.out[:0], spare: hr.spare[:0],
	}
	if len(rows) == 0 || w <= 0 || h <= 0 || nC == 0 {
		return
	}
	hr.rows = rows
	if len(rows) < h {
		hr.border = opt.CellBorder && h/len(rows) >= 3 && w/nC >= 3
		return
	}
	for px := xLo; px < xHi; px++ {
		cLo := px * nC / w
		cHi := max((px+1)*nC/w, cLo+1)
		if n := len(hr.spans); n > 0 && hr.spans[n-1].cLo == cLo && hr.spans[n-1].cHi == cHi {
			hr.spans[n-1].pxHi = px + 1
		} else {
			hr.spans = append(hr.spans, span{px + 1, cLo, cHi})
		}
	}
}

// unpin drops what init was handed, so a pooled raster holds only its own
// buffers.
func (hr *heatRaster) unpin() { hr.rows, hr.colOrder, hr.highlight = nil, nil, nil }

// add appends the pixels up to end as px, merging them into the last run
// when it is the same colour.
func add(rs []run, end int, px uint32) []run {
	if n := len(rs); n > 0 && rs[n-1].px == px {
		rs[n-1].end = int32(end)
		return rs
	}
	return append(rs, run{end: int32(end), px: px})
}

// row returns pixel row py's runs, valid until the next call.
func (hr *heatRaster) row(py int) []run {
	if hr.rows == nil {
		hr.out = add(hr.out[:0], hr.xHi, hr.hole)
		return hr.out
	}
	nR := len(hr.rows)
	if nR < hr.h {
		return hr.zoomRow(py)
	}
	// Global regime: each pixel row aggregates >= 1 gene rows, summed rows
	// outermost, columns innermost (the order the per-pixel reference in
	// heatmap_test.go sums in), and each span colour-mapped once.
	lo, hi := py*nR/hr.h, (py+1)*nR/hr.h // hi > lo: nR >= h
	rs := hr.out[:0]
	for _, sp := range hr.spans {
		sum, n := 0.0, 0
		for _, row := range hr.rows[lo:hi] {
			for cc := sp.cLo; cc < sp.cHi; cc++ {
				dc := cc
				if hr.colOrder != nil {
					dc = hr.colOrder[cc]
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
		rs = add(rs, sp.pxHi, hr.cmap.word(v, hr.limit))
	}
	hr.out = rs
	if len(hr.highlight) > 0 {
		for gr := lo; gr < hi; gr++ {
			if hr.highlight[gr] {
				// Selection tick marks at both edges of the strip.
				hr.tick(0, 3)
				hr.tick(hr.w-3, hr.w)
				break
			}
		}
	}
	return hr.out
}

// zoomRow is the zoom regime: each gene row gets >= 1 pixel rows, and its
// cells are laid out once. Cells start left to right, so a cell that
// overlaps the one before (more columns than pixels) cuts it short: the
// last write wins, as painting them in order would.
func (hr *heatRaster) zoomRow(py int) []run {
	nR := len(hr.rows)
	gr := ((py+1)*nR - 1) / hr.h // the last gene row starting at or above py
	if gr != hr.cellsGr {
		hr.cellsGr = gr
		row, rs, start := hr.rows[gr], hr.cells[:0], hr.xLo // runs cover [xLo, start)
		for cc := 0; cc < hr.nC; cc++ {
			x0 := cc * hr.w / hr.nC
			x1 := max((cc+1)*hr.w/hr.nC, x0+1)
			if hr.border {
				x1--
			}
			x0, x1 = max(x0, hr.xLo), min(x1, hr.xHi)
			if x0 >= x1 {
				continue
			}
			dc := cc
			if hr.colOrder != nil {
				dc = hr.colOrder[cc]
			}
			v := math.NaN()
			if dc >= 0 && dc < len(row) {
				v = row[dc]
			}
			if x0 > start {
				rs = add(rs, x0, hr.hole)
			} else if n := len(rs); x0 < start { // only the last run reaches past x0
				if n == 1 && x0 == hr.xLo || n > 1 && int(rs[n-2].end) == x0 {
					rs = rs[:n-1]
				} else {
					rs[n-1].end = int32(x0)
				}
			}
			rs = add(rs, x1, hr.cmap.word(v, hr.limit))
			start = x1
		}
		if start < hr.xHi {
			rs = add(rs, hr.xHi, hr.hole)
		}
		hr.cells = rs
	}
	hl := hr.highlight[gr]
	switch {
	case hr.border && (gr+1)*hr.h/nR-1 == py: // the gene row's last pixel row
		hr.out = add(hr.out[:0], hr.xHi, hr.hole)
	case !hl:
		return hr.cells
	default:
		hr.out = append(hr.out[:0], hr.cells...)
	}
	if hl {
		hr.tick(0, 3)
	}
	return hr.out
}

// tick lays [x0, x1), clipped to [xLo, xHi), over hr.out in the tick-mark
// colour.
func (hr *heatRaster) tick(x0, x1 int) {
	x0, x1 = max(x0, hr.xLo), min(x1, hr.xHi)
	if x0 >= x1 {
		return
	}
	out, start, done := hr.spare[:0], hr.xLo, false
	for _, rn := range hr.out {
		end := int(rn.end)
		if start < x0 {
			out = add(out, min(end, x0), rn.px)
		}
		if end > x0 && start < x1 && !done {
			out, done = add(out, x1, hr.hl), true
		}
		if end > x1 {
			out = add(out, end, rn.px)
		}
		start = end
	}
	hr.out, hr.spare = out, hr.out
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
