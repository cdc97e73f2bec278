package render

import (
	"bytes"
	"fmt"
	"image/color"
	"math"
	"math/rand"
	"slices"
	"testing"

	"forestview/internal/cluster"
)

func synthRows(nR, nC int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, nR)
	for i := range rows {
		row := make([]float64, nC)
		for c := range row {
			if rng.Intn(17) == 0 {
				row[c] = math.NaN()
			} else {
				row[c] = rng.NormFloat64() * 2
			}
		}
		rows[i] = row
	}
	return rows
}

// TestRenderHeatmapColOrder: a column permutation must move whole columns,
// pixel-exactly, in the zoom regime.
func TestRenderHeatmapColOrder(t *testing.T) {
	rows := synthRows(8, 4, 11)
	opt := HeatmapOptions{ColorMap: GreenBlackRed, Limit: 2}
	direct := NewCanvas(40, 40, color.RGBA{A: 255})
	RenderHeatmap(direct, Rect{X: 0, Y: 0, W: 40, H: 40}, rows, opt)

	order := []int{3, 2, 1, 0}
	permuted := NewCanvas(40, 40, color.RGBA{A: 255})
	opt.ColOrder = order
	RenderHeatmap(permuted, Rect{X: 0, Y: 0, W: 40, H: 40}, rows, opt)

	// Display column j of the permuted render == display column order[j]
	// of the direct render (both 10px wide here).
	for j, dc := range order {
		for y := 0; y < 40; y++ {
			for dx := 0; dx < 10; dx++ {
				got := permuted.Image().At(j*10+dx, y)
				want := direct.Image().At(dc*10+dx, y)
				if got != want {
					t.Fatalf("display col %d px (%d,%d): got %v, want %v", j, dx, y, got, want)
				}
			}
		}
	}
}

// referenceRenderHeatmap is the per-pixel rasterizer RenderHeatmap replaced,
// kept verbatim as the parity oracle: it recomputes the aggregate and the
// colour for every pixel and draws through the public Set / FillRect.
func referenceRenderHeatmap(c *Canvas, r Rect, rows [][]float64, opt HeatmapOptions) {
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
				// Selection tick marks at both edges of the strip, cut to
				// the rect.
				c.FillRect(r.X, r.Y+py, min(3, r.W), 1, hl)
				c.FillRect(r.X+max(0, r.W-3), r.Y+py, min(3, r.W), 1, hl)
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
			c.FillRect(r.X, y, min(3, r.W), h, hl)
		}
	}
}

// TestHeatmapTicksStayInRect: a highlighted rect 1 or 2 pixels wide, in
// either regime, drawn between two filled neighbours by RenderHeatmap and
// by the reference, leaves every pixel of both neighbours its colour: the
// 3-pixel tick marks are cut to the rect.
func TestHeatmapTicksStayInRect(t *testing.T) {
	fill := color.RGBA{R: 10, G: 20, B: 30, A: 255}
	for _, w := range []int{1, 2} {
		for _, nR := range []int{4, 40} { // zoom, global
			rows := synthRows(nR, 5, int64(w*nR))
			opt := HeatmapOptions{ColorMap: GreenBlackRed, Limit: 2, Highlight: map[int]bool{0: true, 3: true, nR - 1: true}}
			for name, draw := range map[string]func(*Canvas, Rect, [][]float64, HeatmapOptions){"RenderHeatmap": RenderHeatmap, "reference": referenceRenderHeatmap} {
				c := NewCanvas(3+w+3, 20, color.Black)
				c.FillRect(0, 0, 3, 20, fill)
				c.FillRect(3+w, 0, 3, 20, fill)
				draw(c, Rect{X: 3, Y: 0, W: w, H: 20}, rows, opt)
				for y := 0; y < 20; y++ {
					for _, x := range []int{0, 1, 2, 3 + w, 4 + w, 5 + w} {
						if got := c.At(x, y); got != fill {
							t.Fatalf("%s, %d px wide, %d rows: neighbour pixel (%d, %d) is %v, want %v", name, w, nR, x, y, got, fill)
						}
					}
				}
			}
		}
	}
}

// TestRenderHeatmapMatchesReference: RenderHeatmap must paint exactly the
// pixels the per-pixel oracle paints — both regimes and their boundary,
// columns below / at / above the pixel width, ragged, empty and all-NaN
// rows and columns, column orders with out-of-range entries, highlights,
// borders, and rects partly or wholly outside a translated canvas (the
// wall-tile clip path).
func TestRenderHeatmapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const cases = 3000
	regimes := [2]int{}
	for i := 0; i < cases; i++ {
		r := Rect{X: rng.Intn(30) - 10, Y: rng.Intn(30) - 10, W: 1 + rng.Intn(48), H: 1 + rng.Intn(48)}
		var nR, nC int
		switch rng.Intn(4) {
		case 0: // the regime boundary
			nR = max(1, r.H-1+rng.Intn(3))
		case 1:
			nR = 1 + rng.Intn(r.H)
		default:
			nR = r.H + rng.Intn(4*r.H)
		}
		switch rng.Intn(3) {
		case 0:
			nC = r.W
		case 1:
			nC = 1 + rng.Intn(r.W)
		default:
			nC = r.W + 1 + rng.Intn(2*r.W)
		}
		rows := synthRows(nR, nC, rng.Int63())
		nanCol := -1
		if rng.Intn(4) == 0 {
			nanCol = rng.Intn(nC)
		}
		for g := range rows {
			switch rng.Intn(12) {
			case 0:
				rows[g] = nil
			case 1:
				rows[g] = rows[g][:rng.Intn(nC)]
			case 2:
				for c := range rows[g] {
					rows[g][c] = math.NaN()
				}
			}
			if nanCol >= 0 && nanCol < len(rows[g]) {
				rows[g][nanCol] = math.NaN()
			}
		}
		opt := HeatmapOptions{ColorMap: ColorMap(rng.Intn(3)), Limit: []float64{2, 0.5, 0, math.NaN()}[rng.Intn(4)], CellBorder: rng.Intn(2) == 0}
		if rng.Intn(3) == 0 {
			opt.ColOrder = rng.Perm(nC)[:1+rng.Intn(nC)]
			if rng.Intn(2) == 0 {
				opt.ColOrder[rng.Intn(len(opt.ColOrder))] = []int{-1, nC, nC + 7}[rng.Intn(3)]
			}
		}
		if rng.Intn(3) == 0 {
			opt.Highlight = map[int]bool{rng.Intn(nR): true, rng.Intn(nR): true, rng.Intn(nR): false}
			if rng.Intn(2) == 0 {
				opt.HighlightColor = color.NRGBA{R: 200, G: 40, B: uint8(rng.Intn(256)), A: uint8(128 + rng.Intn(128))}
			}
		}
		// A canvas smaller than the rect's reach, shifted so the rect falls
		// inside, across an edge or (rarely) wholly outside.
		cw, ch := 1+rng.Intn(60), 1+rng.Intn(60)
		dx, dy := 0, 0
		if rng.Intn(2) == 0 {
			dx, dy = rng.Intn(80)-40, rng.Intn(80)-40
		}
		bg := color.RGBA{R: 9, G: 9, B: 9, A: 255}
		got, want := NewCanvas(cw, ch, bg), NewCanvas(cw, ch, bg)
		RenderHeatmap(got.Translated(dx, dy), r, rows, opt)
		referenceRenderHeatmap(want.Translated(dx, dy), r, rows, opt)
		if !bytes.Equal(got.Image().Pix, want.Image().Pix) {
			t.Fatalf("case %d: Pix differs (rect %+v, %d rows x %d cols, canvas %dx%d shifted %d,%d, opt %+v)",
				i, r, nR, nC, cw, ch, dx, dy, opt)
		}
		if nR >= r.H {
			regimes[0]++
		} else {
			regimes[1]++
		}
	}
	if regimes[0] < cases/4 || regimes[1] < cases/4 {
		t.Fatalf("regimes unevenly covered: global %d, zoom %d", regimes[0], regimes[1])
	}
	// The slab shapes a 256x256 /api/heatmap tile renders from.
	for _, sh := range [][2]int{{100, 24}, {255, 24}, {256, 256}, {257, 300}, {300, 12}, {400, 40}, {511, 24}} {
		rows := synthRows(sh[0], sh[1], 99)
		opt := HeatmapOptions{Limit: 2, CellBorder: true}
		got, want := NewCanvas(256, 256, color.RGBA{A: 255}), NewCanvas(256, 256, color.RGBA{A: 255})
		RenderHeatmap(got, Rect{W: 256, H: 256}, rows, opt)
		referenceRenderHeatmap(want, Rect{W: 256, H: 256}, rows, opt)
		if !bytes.Equal(got.Image().Pix, want.Image().Pix) {
			t.Fatalf("256x256 tile of %d rows x %d cols: Pix differs", sh[0], sh[1])
		}
	}
}

// canvasHeatmapPNG is the path HeatmapPNG replaces: a canvas cleared to bg,
// the top strip's tree right of the left strip, the left strip's tree
// below the top one, RenderHeatmap over the rest, and the canvas encoded.
func canvasHeatmapPNG(w, h int, bg color.RGBA, rows [][]float64, opt HeatmapOptions, strips ...Dendrogram) ([]byte, error) {
	c := NewCanvas(w, h, bg)
	var top, left Dendrogram
	for _, d := range strips {
		if d.Orientation == AboveColumns {
			top = d
		} else {
			left = d
		}
	}
	hx, hy := max(left.Size, 0), max(top.Size, 0)
	if hy > 0 {
		RenderDendrogram(c, Rect{X: hx, W: w - hx, H: hy}, top.Tree, AboveColumns, top.Color)
	}
	if hx > 0 {
		RenderDendrogram(c, Rect{Y: hy, W: hx, H: h - hy}, left.Tree, LeftOfRows, left.Color)
	}
	RenderHeatmap(c, Rect{X: hx, Y: hy, W: w - hx, H: h - hy}, rows, opt)
	return encodePNG(c)
}

// checkHeatmapPNG fails unless HeatmapPNG gives the canvas path's file, or
// its error.
func checkHeatmapPNG(t *testing.T, name string, w, h int, bg color.RGBA, rows [][]float64, opt HeatmapOptions, strips ...Dendrogram) {
	t.Helper()
	got, gotErr := HeatmapPNG(w, h, bg, rows, opt, strips...)
	want, wantErr := canvasHeatmapPNG(w, h, bg, rows, opt, strips...)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !bytes.Equal(got, want) {
		t.Fatalf("%s: %dx%d tile of %d rows, opt %+v, strips %v: runs path %d bytes (err %v), canvas path %d bytes (err %v)",
			name, w, h, len(rows), opt, stripSizes(strips), len(got), gotErr, len(want), wantErr)
	}
}

// stripSizes names each strip by its orientation, size and leaf count.
func stripSizes(strips []Dendrogram) []string {
	var out []string
	for _, d := range strips {
		out = append(out, fmt.Sprintf("%d:%dpx/%d leaves", d.Orientation, d.Size, d.Tree.NLeaves))
	}
	return out
}

// TestHeatmapPNGMatchesCanvas: the runs path writes the canvas path's file
// byte for byte — both regimes and the nR = h ± 1 boundary, columns below,
// at and above the width, ragged, empty and all-NaN rows, column orders
// with out-of-range entries, every colour map under NaN, zero and negative
// limits, highlights and backgrounds (translucent ones make the file
// RGBA; an opaque one can equal a cell colour), and 1×N and N×1 tiles.
func TestHeatmapPNGMatchesCanvas(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	const cases = 4000
	regimes := [2]int{}
	for i := 0; i < cases; i++ {
		w, h := 1+rng.Intn(64), 1+rng.Intn(64)
		switch rng.Intn(8) {
		case 0:
			w = 1
		case 1:
			h = 1
		}
		var nR, nC int
		switch rng.Intn(4) {
		case 0: // the regime boundary
			nR = max(1, h-1+rng.Intn(3))
		case 1:
			nR = 1 + rng.Intn(h)
		default:
			nR = h + rng.Intn(3*h)
		}
		switch rng.Intn(3) {
		case 0:
			nC = w
		case 1:
			nC = 1 + rng.Intn(w)
		default:
			nC = w + 1 + rng.Intn(2*w)
		}
		rows := synthRows(nR, nC, rng.Int63())
		for g := range rows {
			switch rng.Intn(12) {
			case 0:
				rows[g] = nil
			case 1:
				rows[g] = rows[g][:rng.Intn(nC)]
			case 2:
				for c := range rows[g] {
					rows[g][c] = math.NaN()
				}
			}
		}
		if rng.Intn(50) == 0 {
			rows = rows[:0]
		}
		opt := HeatmapOptions{
			ColorMap:   ColorMap(rng.Intn(3)),
			Limit:      []float64{2, 0.5, 0, -1, math.NaN()}[rng.Intn(5)],
			CellBorder: rng.Intn(3) > 0,
		}
		if rng.Intn(3) == 0 {
			opt.ColOrder = rng.Perm(nC)[:1+rng.Intn(nC)]
			if rng.Intn(2) == 0 {
				opt.ColOrder[rng.Intn(len(opt.ColOrder))] = []int{-1, nC, nC + 7}[rng.Intn(3)]
			}
		}
		if rng.Intn(4) == 0 && nR > 0 {
			opt.Highlight = map[int]bool{rng.Intn(nR): true, rng.Intn(nR): true}
			if rng.Intn(2) == 0 {
				opt.HighlightColor = color.NRGBA{R: 200, G: 40, B: uint8(rng.Intn(256)), A: uint8(128 + rng.Intn(128))}
			}
		}
		bg := []color.RGBA{{A: 255}, {R: 9, G: 9, B: 9, A: 255}, MissingColor, {R: 10, B: 20, A: 128}}[rng.Intn(4)]
		checkHeatmapPNG(t, fmt.Sprintf("case %d", i), w, h, bg, rows, opt)
		if nR >= h {
			regimes[0]++
		} else {
			regimes[1]++
		}
	}
	if regimes[0] < cases/4 || regimes[1] < cases/4 {
		t.Fatalf("regimes unevenly covered: global %d, zoom %d", regimes[0], regimes[1])
	}
	// The slab shapes a 256x256 /api/heatmap tile renders from.
	for _, sh := range [][2]int{{100, 24}, {255, 24}, {256, 256}, {257, 300}, {300, 12}, {400, 40}, {511, 24}} {
		opt := HeatmapOptions{Limit: 2, CellBorder: true}
		checkHeatmapPNG(t, "tile", 256, 256, color.RGBA{A: 255}, synthRows(sh[0], sh[1], 99), opt)
	}
	checkHeatmapPNG(t, "no size", 0, 5, color.RGBA{A: 255}, synthRows(3, 3, 1), HeatmapOptions{})
	checkHeatmapPNG(t, "negative size", 4, -2, color.RGBA{A: 255}, synthRows(3, 3, 1), HeatmapOptions{})
}

// FuzzHeatmapPNG holds the runs path to the canvas path on any tile of up
// to 64×64 pixels and 130×130 values. The input is width, height, rows,
// columns and a flag byte (colour map, limit, borders, a column order,
// a highlight), then value bytes, cycled: 255 is NaN, any other b is
// (b−128)/32, and a row whose first byte is 0 mod 7 is cut short. The
// seeds are in testdata/fuzz/FuzzHeatmapPNG.
func FuzzHeatmapPNG(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		w, h, nR, nC, flags := 1+int(data[0]%64), 1+int(data[1]%64), int(data[2]%130), int(data[3]%130), data[4]
		vals := data[5:]
		val := func(k int) byte {
			if len(vals) == 0 {
				return 128
			}
			return vals[k%len(vals)]
		}
		rows, k := make([][]float64, nR), 0
		for g := range rows {
			n := nC
			if b := val(k); b%7 == 0 && nC > 0 {
				n = int(b) % nC
			}
			rows[g] = make([]float64, n)
			for c := range rows[g] {
				if b := val(k); b == 255 {
					rows[g][c] = math.NaN()
				} else {
					rows[g][c] = (float64(b) - 128) / 32
				}
				k++
			}
		}
		opt := HeatmapOptions{
			ColorMap:   ColorMap(flags & 3 % 3),
			Limit:      []float64{2, 0.5, 0, -1, math.NaN(), math.Inf(1), 1e-9, 3}[flags>>2&7],
			CellBorder: flags&0x20 != 0,
		}
		if flags&0x40 != 0 && nC > 0 {
			opt.ColOrder = make([]int, 1+int(val(0))%(nC+2))
			for i := range opt.ColOrder {
				opt.ColOrder[i] = int(val(i+1))%(nC+3) - 1
			}
		}
		if flags&0x80 != 0 && nR > 0 {
			opt.Highlight = map[int]bool{int(val(1)) % nR: true}
			opt.HighlightColor = color.NRGBA{R: val(2), G: val(3), A: val(4)}
		}
		checkHeatmapPNG(t, "fuzz", w, h, color.RGBA{A: 255}, rows, opt)
	})
}

// buildTree returns a tree over n >= 1 leaves whose merge heights come
// from height: each merge joins two of the clusters left, pick(k) choosing
// among k, or, for a chain, the last cluster and the next leaf.
func buildTree(n int, chain bool, pick func(int) int, height func() float64) *cluster.Tree {
	t := &cluster.Tree{NLeaves: n}
	roots := make([]int, n)
	for i := range roots {
		roots[i] = i
	}
	for k := 0; k+1 < n; k++ {
		i, j := 0, 1
		if !chain {
			i, j = pick(len(roots)), pick(len(roots)-1)
			if j >= i {
				j++
			}
		}
		t.Merges = append(t.Merges, cluster.Merge{A: roots[i], B: roots[j], Height: height()})
		roots[i] = n + k
		roots = slices.Delete(roots, j, j+1)
	}
	return t
}

// swapChildren trades the children of each merge of t that swap(i) picks,
// as an orientation pass does: the same tree, in another leaf order.
func swapChildren(t *cluster.Tree, swap func(i int) bool) {
	for i, m := range t.Merges {
		if swap(i) {
			t.Merges[i].A, t.Merges[i].B = m.B, m.A
		}
	}
}

// TestLayBracketsBandsFollowLeafOrder: the bands layBrackets works out
// from the tree put leaf LeafOrder()[i] at the centre of band i, on chains
// and random shapes with random merges' children swapped, on either axis.
func TestLayBracketsBandsFollowLeafOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var pos []node
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(200)
		tr := buildTree(n, rng.Intn(4) == 0, rng.Intn, rng.Float64)
		swapChildren(tr, func(int) bool { return rng.Intn(2) == 0 })
		r := Rect{X: rng.Intn(9), Y: rng.Intn(9), W: 1 + rng.Intn(300), H: 1 + rng.Intn(300)}
		o := Orientation(rng.Intn(2))
		lo, span := r.Y, r.H
		if o == AboveColumns {
			lo, span = r.X, r.W
		}
		pos = layBrackets(pos, r, tr, o, func(x0, y0, x1, y1 int) {})
		for band, leaf := range tr.LeafOrder() {
			if want := lo + (2*band+1)*span/(2*n); pos[leaf].leaf != want {
				t.Fatalf("tree %d (%d leaves): leaf %d sits at %d, want band %d's centre %d", i, n, leaf, pos[leaf].leaf, band, want)
			}
		}
	}
}

// TestHeatmapPNGStripsMatchCanvas: with dendrogram strips, the runs path
// writes the canvas path's file byte for byte — both strips, either alone,
// 1-px strips and strips as wide or tall as the tile or more; trees of 1
// and 2 leaves, chains and random shapes, with heights rising, falling or
// tied at 0, with or without the children of random merges swapped (so
// in another leaf order than buildTree's); both heatmap regimes,
// a column order, highlights, translucent colours; and tiles of every
// size one after another on the pooled encoders.
func TestHeatmapPNGStripsMatchCanvas(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	colors := []color.RGBA{{R: 180, G: 180, B: 180, A: 255}, {A: 255}, {R: 90, G: 10, A: 128}}
	reordered := 0
	strip := func(o Orientation, size, n int) Dendrogram {
		heights := []func() float64{
			func() float64 { return 2 * rng.Float64() },
			func() float64 { return 0 },
			func() float64 { return float64(rng.Intn(3)) / 2 },
		}[rng.Intn(3)]
		tr := buildTree(n, rng.Intn(4) == 0, rng.Intn, heights)
		if rng.Intn(2) == 0 {
			order := tr.LeafOrder()
			swapChildren(tr, func(int) bool { return rng.Intn(2) == 0 })
			if !slices.Equal(tr.LeafOrder(), order) {
				reordered++
			}
		}
		return Dendrogram{Tree: tr, Orientation: o, Size: size, Color: colors[rng.Intn(len(colors))]}
	}
	size := func(side int) int {
		switch rng.Intn(8) {
		case 0:
			return 1
		case 1:
			return side + rng.Intn(3)
		default:
			return 1 + rng.Intn(side)
		}
	}
	leaves := func(n int) int { return []int{1, 2, max(n, 1), 1 + rng.Intn(3*n+1)}[rng.Intn(4)] }
	const cases = 3000
	regimes := [2]int{}
	for i := 0; i < cases; i++ {
		w, h := 1+rng.Intn(96), 1+rng.Intn(96)
		nR, nC := 1+rng.Intn(2*h), 1+rng.Intn(w)
		rows := synthRows(nR, nC, rng.Int63())
		opt := HeatmapOptions{ColorMap: ColorMap(rng.Intn(3)), Limit: 2, CellBorder: rng.Intn(3) > 0}
		var strips []Dendrogram
		heatH, kind := h, rng.Intn(3) // kind 0: both strips, 1: left, 2: top
		if kind != 2 {
			strips = append(strips, strip(LeftOfRows, size(w), leaves(nR)))
		}
		if kind != 1 {
			top := strip(AboveColumns, size(h), leaves(nC))
			if rng.Intn(2) == 0 {
				opt.ColOrder = top.Tree.LeafOrder()
			}
			strips, heatH = append(strips, top), h-top.Size
		}
		if rng.Intn(4) == 0 {
			opt.Highlight = map[int]bool{rng.Intn(nR): true}
		}
		rng.Shuffle(len(strips), func(a, b int) { strips[a], strips[b] = strips[b], strips[a] })
		bg := []color.RGBA{{A: 255}, {R: 9, G: 9, B: 9, A: 255}, {R: 10, B: 20, A: 128}}[rng.Intn(3)]
		checkHeatmapPNG(t, fmt.Sprintf("case %d", i), w, h, bg, rows, opt, strips...)
		if nR >= heatH {
			regimes[0]++
		} else {
			regimes[1]++
		}
	}
	if regimes[0] < cases/5 || regimes[1] < cases/5 {
		t.Fatalf("regimes unevenly covered: global %d, zoom %d", regimes[0], regimes[1])
	}
	if reordered < cases/4 {
		t.Fatalf("%d strips of %d tiles in another leaf order than buildTree's", reordered, cases)
	}
	// A paper-shaped tree=40&atree=48 tile: 375 slab rows of a 6,000-row
	// pane (level 4), 24 columns in the array tree's order.
	rows := synthRows(375, 24, 60)
	gene := buildTree(6000, false, rng.Intn, func() float64 { return 2 * rng.Float64() })
	array := buildTree(24, false, rng.Intn, func() float64 { return 2 * rng.Float64() })
	fg := color.RGBA{R: 180, G: 180, B: 180, A: 255}
	checkHeatmapPNG(t, "paper", 256, 256, color.RGBA{A: 255}, rows,
		HeatmapOptions{Limit: 2, CellBorder: true, ColOrder: array.LeafOrder()},
		Dendrogram{Tree: array, Orientation: AboveColumns, Size: 48, Color: fg},
		Dendrogram{Tree: gene, Orientation: LeftOfRows, Size: 40, Color: fg})
}

// FuzzHeatmapPNGStrips holds the strip runs path to the canvas path on any
// tile of up to 64×64 pixels with either strip or both. The input is
// width, height, the left strip's width and the top strip's height (0 is
// none; up to 2 past the tile), rows, columns and a flag byte (chain-shaped
// trees, trees with merges' children swapped, borders, the top tree's
// order as the column order, a highlight), then bytes cycled: the values
// ((b−128)/32, 255 is NaN), then the trees (b picks a cluster to merge, b/64
// is its height, and an odd b swaps a merge's children). The left tree has
// a leaf a row, the top one a leaf a column.
// The seeds are in testdata/fuzz/FuzzHeatmapPNGStrips.
func FuzzHeatmapPNGStrips(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		w, h := 1+int(data[0]%64), 1+int(data[1]%64)
		left, top := int(data[2])%(w+3), int(data[3])%(h+3)
		nR, nC, flags := 1+int(data[4]%130), 1+int(data[5]%40), data[6]
		vals, k := data[7:], 0
		next := func() byte {
			k++
			if len(vals) == 0 {
				return 128
			}
			return vals[(k-1)%len(vals)]
		}
		rows := make([][]float64, nR)
		for g := range rows {
			rows[g] = make([]float64, nC)
			for c := range rows[g] {
				if b := next(); b == 255 {
					rows[g][c] = math.NaN()
				} else {
					rows[g][c] = (float64(b) - 128) / 32
				}
			}
		}
		pick := func(n int) int { return int(next()) % n }
		height := func() float64 { return float64(next()) / 64 }
		strip := func(o Orientation, size, n int, chain, swapped bool) Dendrogram {
			tr := buildTree(n, chain, pick, height)
			if swapped {
				swapChildren(tr, func(int) bool { return next()&1 != 0 })
			}
			return Dendrogram{Tree: tr, Orientation: o, Size: size, Color: color.RGBA{R: 180, G: 180, B: 180, A: 255}}
		}
		gene := strip(LeftOfRows, left, nR, flags&1 != 0, flags&2 != 0)
		array := strip(AboveColumns, top, nC, flags&4 != 0, flags&8 != 0)
		opt := HeatmapOptions{Limit: 2, CellBorder: flags&0x10 != 0}
		if flags&0x20 != 0 {
			opt.ColOrder = array.Tree.LeafOrder()
		}
		if flags&0x40 != 0 {
			opt.Highlight = map[int]bool{int(next()) % nR: true}
		}
		checkHeatmapPNG(t, "fuzz", w, h, color.RGBA{A: 255}, rows, opt, gene, array)
	})
}
