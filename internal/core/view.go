package core

import (
	"fmt"
	"image/color"

	"forestview/internal/render"
	"forestview/internal/wall"
)

// Scene layout constants (pixels at scene scale).
const (
	paneMargin  = 4
	titleScale  = 1
	footerH     = 22
	labelColW   = 64
	geneTreeW   = 28
	arrayTreeH  = 20
	minZoomCell = 2
)

var (
	sceneBG    = color.RGBA{R: 12, G: 12, B: 16, A: 255}
	paneBG     = color.RGBA{R: 24, G: 24, B: 32, A: 255}
	paneBorder = color.RGBA{R: 90, G: 90, B: 110, A: 255}
	titleFG    = color.RGBA{R: 235, G: 235, B: 235, A: 255}
	treeFG     = color.RGBA{R: 170, G: 170, B: 190, A: 255}
	labelFG    = color.RGBA{R: 200, G: 200, B: 160, A: 255}
	absentFG   = color.RGBA{R: 70, G: 50, B: 50, A: 255}
)

// RenderScene draws the full ForestView display — all panes in display
// order — into a w×h scene on c. The canvas may be a translated wall-tile
// view; all drawing clips appropriately.
func (fv *ForestView) RenderScene(c *render.Canvas, w, h int) {
	fv.mu.RLock()
	defer fv.mu.RUnlock()
	c.FillRect(0, 0, w, h, sceneBG)
	k := len(fv.order)
	if k == 0 || w <= 0 || h <= 0 {
		return
	}
	paneW := (w - (k+1)*paneMargin) / k
	if paneW < 20 {
		paneW = 20
	}
	for di, pi := range fv.order {
		x := paneMargin + di*(paneW+paneMargin)
		fv.renderPane(c, render.Rect{X: x, Y: paneMargin, W: paneW, H: h - 2*paneMargin}, pi)
	}
}

// renderPane draws one dataset pane: title, global view with selection
// markers, array tree, synchronized/unsynchronized zoom view, labels and a
// footer legend. Caller holds fv.mu.
func (fv *ForestView) renderPane(c *render.Canvas, r render.Rect, pi int) {
	p := fv.panes[pi]
	cd := p.DS
	prefs := p.Prefs
	c.FillRect(r.X, r.Y, r.W, r.H, paneBG)
	c.StrokeRect(r.X, r.Y, r.W, r.H, paneBorder)

	// Title bar.
	titleH := render.TextHeight(titleScale) + 4
	c.DrawTextClipped(r.X+3, r.Y+2, cd.Data.Name, titleScale, r.W-6, titleFG)
	body := render.Rect{X: r.X + 2, Y: r.Y + titleH, W: r.W - 4, H: r.H - titleH - footerH}
	if body.H < 10 {
		return
	}

	// Column layout: [gene tree][global view][zoom area].
	gx := body.X
	if prefs.ShowGeneTree && cd.GeneTree != nil && body.W > geneTreeW*3 {
		render.RenderDendrogram(c, render.Rect{X: gx, Y: body.Y, W: geneTreeW, H: body.H},
			cd.GeneTree, render.LeftOfRows, treeFG)
		gx += geneTreeW + 2
	}
	globalW := int(float64(body.W) * prefs.GlobalViewFrac)
	if globalW < 8 {
		globalW = 8
	}
	globalRect := render.Rect{X: gx, Y: body.Y, W: globalW, H: body.H}
	render.RenderHeatmap(c, globalRect, cd.RowsInDisplayOrder(), render.HeatmapOptions{
		ColorMap:  prefs.ColorMap,
		Limit:     prefs.ContrastLimit,
		Highlight: fv.highlightLocked(pi),
	})
	c.StrokeRect(globalRect.X-1, globalRect.Y-1, globalRect.W+2, globalRect.H+2, paneBorder)

	// Zoom area to the right of the global view.
	zx := gx + globalW + 4
	zw := body.X + body.W - zx
	if zw < 12 {
		return
	}
	zy := body.Y
	zh := body.H
	labelW := 0
	if prefs.ShowLabels && zw > labelColW*2 {
		labelW = labelColW
	}
	var colOrder []int // the zoom's columns under their brackets
	if cd.ArrayTree != nil && zh > arrayTreeH*3 {
		render.RenderDendrogram(c, render.Rect{X: zx, Y: zy, W: zw - labelW, H: arrayTreeH},
			cd.ArrayTree, render.AboveColumns, treeFG)
		zy += arrayTreeH + 2
		zh -= arrayTreeH + 2
		colOrder = cd.ArrayOrder
	}
	zoomRect := render.Rect{X: zx, Y: zy, W: zw - labelW, H: zh}
	fv.renderZoomLocked(c, zoomRect, pi, colOrder)
	if labelW > 0 {
		fv.renderZoomLabelsLocked(c, render.Rect{X: zx + zw - labelW + 2, Y: zy, W: labelW - 2, H: zh}, pi)
	}

	// Footer: color legend plus the selection caption.
	fy := r.Y + r.H - footerH + 2
	prefs.ColorMap.Legend(c, render.Rect{X: r.X + 3, Y: fy, W: minIntView(r.W/3, 90), H: footerH - 6},
		prefs.ContrastLimit, titleFG)
	caption := fmt.Sprintf("%d genes x %d exps", cd.Data.NumGenes(), cd.Data.NumExperiments())
	if fv.selection != nil {
		caption = fmt.Sprintf("%d selected", len(fv.selection.IDs))
	}
	c.DrawTextClipped(r.X+minIntView(r.W/3, 90)+8, fy, caption, 1, r.W-minIntView(r.W/3, 90)-12, titleFG)
}

// highlightLocked returns the display positions of the selected genes in
// pane pi — the line markers the global view draws in every pane once a
// selection exists anywhere. The caller holds fv.mu.
func (fv *ForestView) highlightLocked(pi int) map[int]bool {
	if fv.selection == nil {
		return nil
	}
	cd := fv.panes[pi].DS
	out := make(map[int]bool)
	for _, id := range fv.selection.IDs {
		if row, ok := cd.Data.GeneIndex(id); ok {
			if pos := cd.DisplayPos(row); pos >= 0 {
				out[pos] = true
			}
		}
	}
	return out
}

// zoomContentLocked mirrors ZoomContent without re-locking.
func (fv *ForestView) zoomContentLocked(pi int) []ZoomRow {
	if fv.selection == nil {
		return nil
	}
	cd := fv.panes[pi].DS
	if fv.syncViews {
		out := make([]ZoomRow, len(fv.selection.IDs))
		for i, id := range fv.selection.IDs {
			row := -1
			if r, ok := cd.Data.GeneIndex(id); ok {
				row = r
			}
			out[i] = ZoomRow{GeneID: id, Row: row}
		}
		return out
	}
	var out []ZoomRow
	for _, row := range cd.DisplayOrder {
		id := cd.Data.Genes[row].ID
		if fv.selection.set[id] {
			out = append(out, ZoomRow{GeneID: id, Row: row})
		}
	}
	return out
}

func (fv *ForestView) scrollLocked(pi int) int {
	if fv.syncViews {
		return fv.syncScroll
	}
	return fv.panes[pi].scroll
}

// renderZoomLocked draws the pane's zoom view, its columns in colOrder
// (nil is data order). Rows below the scroll position fill the rect
// top-down; genes absent from this dataset render as a dim placeholder
// band so cross-pane row alignment is visibly preserved.
func (fv *ForestView) renderZoomLocked(c *render.Canvas, r render.Rect, pi int, colOrder []int) {
	rows := fv.zoomContentLocked(pi)
	if len(rows) == 0 {
		c.DrawTextClipped(r.X+2, r.Y+2, "no selection", 1, r.W-4, treeFG)
		return
	}
	cd := fv.panes[pi].DS
	scroll := fv.scrollLocked(pi)
	if scroll >= len(rows) {
		scroll = len(rows) - 1
	}
	visible := rows[scroll:]
	prefs := fv.panes[pi].Prefs
	data := make([][]float64, len(visible))
	for i, zr := range visible {
		if zr.Row >= 0 {
			data[i] = cd.Data.Row(zr.Row)
		} else {
			data[i] = nil // renders as a missing band
		}
	}
	render.RenderHeatmap(c, r, data, render.HeatmapOptions{
		ColorMap:   prefs.ColorMap,
		Limit:      prefs.ContrastLimit,
		CellBorder: true,
		ColOrder:   colOrder,
	})
	// Overpaint absent-gene bands so they are distinguishable from
	// measured-but-missing cells.
	n := len(visible)
	for i, zr := range visible {
		if zr.Row >= 0 {
			continue
		}
		y := r.Y + i*r.H/n
		h := r.Y + (i+1)*r.H/n - y
		if h < 1 {
			h = 1
		}
		c.FillRect(r.X, y, r.W, h, absentFG)
	}
}

// renderZoomLabelsLocked draws gene IDs next to the zoom rows.
func (fv *ForestView) renderZoomLabelsLocked(c *render.Canvas, r render.Rect, pi int) {
	rows := fv.zoomContentLocked(pi)
	if len(rows) == 0 {
		return
	}
	scroll := fv.scrollLocked(pi)
	if scroll >= len(rows) {
		scroll = len(rows) - 1
	}
	visible := rows[scroll:]
	labels := make([]string, len(visible))
	for i, zr := range visible {
		labels[i] = zr.GeneID
	}
	render.RenderRowLabels(c, r, labels, labelFG)
}

// WallScene adapts a ForestView to the display wall's Scene interface: each
// tile renders the full scene through a translated, clipping canvas —
// the replicated-application model of the Princeton wall.
type WallScene struct {
	FV *ForestView
}

// Render implements wall.Scene.
func (s WallScene) Render(c *render.Canvas, vp render.Rect, wallW, wallH int) {
	s.FV.RenderScene(c.Translated(-vp.X, -vp.Y), wallW, wallH)
}

var _ wall.Scene = WallScene{}

func minIntView(a, b int) int {
	if a < b {
		return a
	}
	return b
}
