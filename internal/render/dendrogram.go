package render

import (
	"image/color"
	"math"
	"slices"

	"forestview/internal/cluster"
)

// Orientation places a dendrogram relative to its heatmap.
type Orientation int

const (
	// LeftOfRows draws the gene tree to the left, leaves pointing right.
	LeftOfRows Orientation = iota
	// AboveColumns draws the array tree on top, leaves pointing down.
	AboveColumns
)

// RenderDendrogram draws the tree into rect. Leaves line up with the
// heatmap rows (or columns) they index: band i of the rect's leaf axis
// holds the tree's LeafOrder()[i] (the caller renders the heatmap in the
// same order, as a pane does). Merge heights map linearly onto the depth
// axis, root at the far edge.
func RenderDendrogram(c *Canvas, r Rect, t *cluster.Tree, o Orientation, fg color.Color) {
	rgba := toRGBA(fg)
	layBrackets(nil, r, t, o, func(x0, y0, x1, y1 int) { c.fillRect(x0, y0, x1-x0+1, y1-y0+1, rgba) })
}

// node is a tree node's pixel position: along the leaf axis, and along the
// depth axis at its merge height.
type node struct{ leaf, depth int }

// layBrackets calls seg with each segment of a valid tree t's brackets
// drawn in r, band i of the leaf axis holding t's LeafOrder()[i]: x0..x1 ×
// y0..y1, inclusive and ordered, one pixel thick; with finite heights >= 0,
// inside r. Node positions go in pos, reused and returned.
func layBrackets(pos []node, r Rect, t *cluster.Tree, o Orientation, seg func(x0, y0, x1, y1 int)) []node {
	if t == nil || t.NLeaves == 0 || r.W <= 0 || r.H <= 0 {
		return pos
	}
	// Height scale: root (max height) at depth 0 of the rect, leaves at
	// the heatmap edge.
	maxH := 0.0
	for _, m := range t.Merges {
		if m.Height > maxH {
			maxH = m.Height
		}
	}
	if maxH == 0 {
		maxH = 1
	}
	// A gene tree's leaf axis is r's height and its depth axis r's width,
	// leaves at the right edge; an array tree's the other way round, leaves
	// at the bottom.
	lo, span, deep, depth := r.Y, r.H, r.X, r.W
	if o != LeftOfRows {
		lo, span, deep, depth = r.X, r.W, r.Y, r.H
	}
	depthPos := func(h float64) int {
		return deep + depth - 1 - int(math.Round(min(h/maxH, 1)*float64(depth-1)))
	}
	line := func(l0, l1, d0, d1 int) {
		if o == LeftOfRows {
			seg(min(d0, d1), min(l0, l1), max(d0, d1), max(l0, l1))
		} else {
			seg(min(l0, l1), min(d0, d1), max(l0, l1), max(d0, d1))
		}
	}
	n := t.NLeaves
	pos = slices.Grow(pos[:0], n+len(t.Merges))[:n+len(t.Merges)]
	// Each leaf's band, as LeafOrder lays it out: every node's leaf count
	// bottom-up in .leaf, then its first band top-down in .depth, A's
	// block before B's.
	for k := range pos {
		pos[k] = node{leaf: 1}
	}
	for i, m := range t.Merges {
		pos[n+i].leaf = pos[m.A].leaf + pos[m.B].leaf
	}
	for i := len(t.Merges) - 1; i >= 0; i-- {
		m, first := t.Merges[i], pos[n+i].depth
		pos[m.A].depth, pos[m.B].depth = first, first+pos[m.A].leaf
	}
	for leaf := range n {
		pos[leaf] = node{leaf: lo + (2*pos[leaf].depth+1)*span/(2*n), depth: depthPos(0)}
	}
	for i, m := range t.Merges {
		a, c, d := pos[m.A], pos[m.B], depthPos(m.Height)
		pos[n+i] = node{leaf: (a.leaf + c.leaf) / 2, depth: d}
		line(a.leaf, a.leaf, d, a.depth)
		line(c.leaf, c.leaf, d, c.depth)
		line(a.leaf, c.leaf, d, d)
	}
	return pos
}

// Dendrogram is a HeatmapPNG tile's tree strip, Size pixels deep (<= 0 is
// none): Tree in Color, as RenderDendrogram draws it, a LeftOfRows strip
// at the tile's left, an AboveColumns one on top.
type Dendrogram struct {
	Tree        *cluster.Tree
	Orientation Orientation
	Size        int
	Color       color.RGBA
}

// stripRaster is a dendrogram strip as runs: its brackets marked in a
// mask, one byte a pixel, over the tile's pixels left of r's right edge in
// r's rows, and each mask row cut into runs of bg and fg.
type stripRaster struct {
	w, h int
	mask []byte
	px   [2]uint32 // bg, fg
	pos  []node    // layBrackets's
}

// init lays d's tree out over r, in the coordinates of a w×h tile, and
// marks its brackets in the mask, cut to it.
func (s *stripRaster) init(d Dendrogram, r Rect, w, h int, bg uint32) {
	s.w, s.h, s.px = min(r.X+r.W, w), max(min(r.Y+r.H, h)-r.Y, 0), [2]uint32{bg, pixelOf(d.Color)}
	s.mask = slices.Grow(s.mask[:0], s.w*s.h)[:s.w*s.h]
	clear(s.mask)
	s.pos = layBrackets(s.pos, r, d.Tree, d.Orientation, func(x0, y0, x1, y1 int) {
		x0, x1, y0, y1 = max(x0, 0), min(x1, s.w-1), max(y0, r.Y), min(y1, r.Y+s.h-1)
		for i := (y0 - r.Y) * s.w; y0 <= y1; y0, i = y0+1, i+s.w {
			for x := x0; x <= x1; x++ {
				s.mask[i+x] = 1
			}
		}
	})
}

// appendRow appends mask row y's runs to rs.
func (s *stripRaster) appendRow(rs []run, y int) []run {
	for x, m := range s.mask[y*s.w : (y+1)*s.w] {
		rs = add(rs, x+1, s.px[m])
	}
	return rs
}
