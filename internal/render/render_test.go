package render

import (
	"bytes"
	"context"
	"image"
	"image/color"
	"math"
	"os"
	"testing"

	"forestview/internal/cluster"
	"forestview/internal/golem"
	"forestview/internal/ontology"
)

var (
	black = color.RGBA{A: 255}
	white = color.RGBA{R: 255, G: 255, B: 255, A: 255}
	red   = color.RGBA{R: 255, A: 255}
)

func TestCanvasBasics(t *testing.T) {
	c := NewCanvas(10, 5, black)
	if c.Width() != 10 || c.Height() != 5 {
		t.Fatalf("dims = %dx%d", c.Width(), c.Height())
	}
	c.Set(3, 2, red)
	if got := c.At(3, 2); got != red {
		t.Fatalf("At(3,2) = %v", got)
	}
	// Out-of-bounds access must not panic and reads return black.
	c.Set(-1, 0, red)
	c.Set(100, 100, red)
	if got := c.At(-5, -5); got != black {
		t.Fatalf("OOB read = %v", got)
	}
}

func TestCanvasNegativeDims(t *testing.T) {
	c := NewCanvas(-3, -3, black)
	if c.Width() != 0 || c.Height() != 0 {
		t.Fatalf("negative dims should clamp to 0: %dx%d", c.Width(), c.Height())
	}
}

func TestFillRectClips(t *testing.T) {
	c := NewCanvas(4, 4, black)
	c.FillRect(2, 2, 10, 10, red)
	if c.At(3, 3) != red {
		t.Fatal("in-bounds corner not filled")
	}
	if c.At(1, 1) != black {
		t.Fatal("outside region filled")
	}
}

func TestLines(t *testing.T) {
	c := NewCanvas(10, 10, black)
	c.HLine(2, 7, 5, red)
	for x := 2; x <= 7; x++ {
		if c.At(x, 5) != red {
			t.Fatalf("HLine missing pixel at %d", x)
		}
	}
	c.VLine(3, 1, 4, red)
	for y := 1; y <= 4; y++ {
		if c.At(3, y) != red {
			t.Fatalf("VLine missing pixel at %d", y)
		}
	}
	// Reversed coordinates still work.
	c2 := NewCanvas(10, 10, black)
	c2.HLine(7, 2, 5, red)
	if c2.At(2, 5) != red || c2.At(7, 5) != red {
		t.Fatal("reversed HLine broken")
	}
}

func TestBresenhamDiagonal(t *testing.T) {
	c := NewCanvas(10, 10, black)
	c.Line(0, 0, 9, 9, red)
	for i := 0; i < 10; i++ {
		if c.At(i, i) != red {
			t.Fatalf("diagonal missing pixel at %d", i)
		}
	}
	// Endpoints of arbitrary lines are always drawn.
	c.Line(9, 0, 0, 5, white)
	if c.At(9, 0) != white || c.At(0, 5) != white {
		t.Fatal("line endpoints missing")
	}
}

func TestStrokeRect(t *testing.T) {
	c := NewCanvas(10, 10, black)
	c.StrokeRect(1, 1, 5, 4, red)
	if c.At(1, 1) != red || c.At(5, 1) != red || c.At(1, 4) != red || c.At(5, 4) != red {
		t.Fatal("outline corners missing")
	}
	if c.At(3, 2) != black {
		t.Fatal("outline filled interior")
	}
}

func TestBlitAndSubImage(t *testing.T) {
	src := NewCanvas(3, 3, red)
	dst := NewCanvas(10, 10, black)
	dst.Blit(src.Image(), 4, 4)
	if dst.At(4, 4) != red || dst.At(6, 6) != red {
		t.Fatal("blit missing")
	}
	if dst.At(3, 3) != black || dst.At(7, 7) != black {
		t.Fatal("blit out of place")
	}
	sub := dst.SubImage(4, 4, 3, 3)
	if sub.RGBAAt(0, 0) != red {
		t.Fatal("SubImage content wrong")
	}
	// Blit with negative origin clips.
	dst.Blit(src.Image(), -1, -1)
	if dst.At(0, 0) != red {
		t.Fatal("clipped blit should still draw visible part")
	}
}

func TestTextMetricsAndRendering(t *testing.T) {
	if w := TextWidth("ABC", 1); w != 3*6-1 {
		t.Fatalf("TextWidth = %d", w)
	}
	if w := TextWidth("", 1); w != 0 {
		t.Fatalf("empty TextWidth = %d", w)
	}
	if h := TextHeight(2); h != 14 {
		t.Fatalf("TextHeight = %d", h)
	}
	c := NewCanvas(40, 10, black)
	c.DrawText(0, 0, "A", 1, white)
	// 'A' has its crossbar on row 3: pixels at (1..3, 3).
	if c.At(1, 3) != white || c.At(2, 3) != white || c.At(3, 3) != white {
		t.Fatal("glyph A crossbar missing")
	}
	if c.At(0, 0) != black {
		t.Fatal("glyph A corner should be empty")
	}
	// Lowercase folds to uppercase: identical rendering.
	cl := NewCanvas(40, 10, black)
	cl.DrawText(0, 0, "a", 1, white)
	for y := 0; y < 7; y++ {
		for x := 0; x < 5; x++ {
			if c.At(x, y) != cl.At(x, y) {
				t.Fatal("lowercase differs from uppercase")
			}
		}
	}
}

func TestTextScale(t *testing.T) {
	c := NewCanvas(40, 20, black)
	c.DrawText(0, 0, "I", 2, white)
	// Scaled glyph occupies 2x2 blocks; top bar of 'I' spans columns 2..6
	// at scale 1, so at scale 2 pixels (4..13, 0..1) include white.
	found := false
	for x := 0; x < 14; x++ {
		if c.At(x, 1) == white {
			found = true
		}
	}
	if !found {
		t.Fatal("scaled glyph missing")
	}
}

func TestTextUnknownRune(t *testing.T) {
	c := NewCanvas(10, 10, black)
	c.DrawText(0, 0, "é", 1, white) // é falls back to '?'
	nonBlack := 0
	for y := 0; y < 7; y++ {
		for x := 0; x < 5; x++ {
			if c.At(x, y) != black {
				nonBlack++
			}
		}
	}
	if nonBlack == 0 {
		t.Fatal("unknown rune rendered nothing")
	}
}

func TestDrawTextClipped(t *testing.T) {
	c := NewCanvas(100, 10, black)
	c.DrawTextClipped(0, 0, "ABCDEFG", 1, 12, white) // fits 2 glyphs
	// Third glyph cell (x = 12..16) must stay empty.
	for x := 12; x < 17; x++ {
		for y := 0; y < 7; y++ {
			if c.At(x, y) != black {
				t.Fatalf("clipped text leaked at %d,%d", x, y)
			}
		}
	}
}

func TestColorMapBasics(t *testing.T) {
	m := GreenBlackRed
	if got := m.Map(0, 2); got != black {
		t.Fatalf("zero maps to %v", got)
	}
	if got := m.Map(2, 2); (got != color.RGBA{R: 255, A: 255}) {
		t.Fatalf("+limit maps to %v", got)
	}
	if got := m.Map(-2, 2); (got != color.RGBA{G: 255, A: 255}) {
		t.Fatalf("-limit maps to %v", got)
	}
	// Saturation beyond the limit.
	if m.Map(99, 2) != m.Map(2, 2) {
		t.Fatal("overshoot should saturate")
	}
	if got := m.Map(math.NaN(), 2); got != MissingColor {
		t.Fatalf("NaN maps to %v", got)
	}
	// Non-positive limit defaults instead of dividing by zero.
	if got := m.Map(1, 0); got.R == 0 {
		t.Fatalf("zero limit fallback broken: %v", got)
	}
	// So does a NaN limit, which is not <= 0 either.
	if got, want := m.Map(1, math.NaN()), m.Map(1, 2); got != want {
		t.Fatalf("NaN limit maps to %v, want the default limit's %v", got, want)
	}
}

func TestColorMapVariants(t *testing.T) {
	if got := BlueYellow.Map(-2, 2); (got != color.RGBA{B: 255, A: 255}) {
		t.Fatalf("BlueYellow low = %v", got)
	}
	if got := BlueYellow.Map(2, 2); (got != color.RGBA{R: 255, G: 255, A: 255}) {
		t.Fatalf("BlueYellow high = %v", got)
	}
	if got := Grayscale.Map(2, 2); got.R != 255 || got.G != 255 || got.B != 255 {
		t.Fatalf("Grayscale high = %v", got)
	}
	if got := Grayscale.Map(-2, 2); got.R != 0 {
		t.Fatalf("Grayscale low = %v", got)
	}
	for _, m := range []ColorMap{GreenBlackRed, BlueYellow, Grayscale} {
		if m.String() == "unknown" {
			t.Fatal("named colormap reports unknown")
		}
	}
}

func TestColorMapMonotoneIntensity(t *testing.T) {
	m := GreenBlackRed
	prev := -1
	for v := 0.0; v <= 2.0; v += 0.1 {
		r := int(m.Map(v, 2).R)
		if r < prev {
			t.Fatalf("red channel not monotone at %v", v)
		}
		prev = r
	}
}

func TestLegend(t *testing.T) {
	c := NewCanvas(100, 20, black)
	GreenBlackRed.Legend(c, Rect{X: 0, Y: 0, W: 100, H: 20}, 2, white)
	// Left end green-ish, right end red-ish, middle dark.
	if l := c.At(0, 0); l.G == 0 {
		t.Fatalf("legend left = %v", l)
	}
	if r := c.At(99, 0); r.R == 0 {
		t.Fatalf("legend right = %v", r)
	}
}

// TestLegendFollowsMapLimit: for a limit Map does not take as given — 0,
// negative, NaN — the legend is limit 2's, bar and labels, the limit Map
// colours the heatmap beside it with.
func TestLegendFollowsMapLimit(t *testing.T) {
	draw := func(limit float64) []uint8 {
		c := NewCanvas(120, 24, black)
		GreenBlackRed.Legend(c, Rect{W: 120, H: 24}, limit, white)
		return c.Image().Pix
	}
	want := draw(2)
	for _, limit := range []float64{0, -2, math.NaN()} {
		if !bytes.Equal(draw(limit), want) {
			t.Errorf("legend for limit %v differs from limit 2's", limit)
		}
	}
}

func TestRenderHeatmapZoom(t *testing.T) {
	rows := [][]float64{
		{2, -2},
		{-2, 2},
	}
	c := NewCanvas(20, 20, black)
	RenderHeatmap(c, Rect{X: 0, Y: 0, W: 20, H: 20}, rows, HeatmapOptions{
		ColorMap: GreenBlackRed, Limit: 2,
	})
	// Top-left quadrant red, top-right green, bottom-left green...
	if got := c.At(5, 5); got.R != 255 || got.G != 0 {
		t.Fatalf("TL = %v", got)
	}
	if got := c.At(15, 5); got.G != 255 || got.R != 0 {
		t.Fatalf("TR = %v", got)
	}
	if got := c.At(5, 15); got.G != 255 {
		t.Fatalf("BL = %v", got)
	}
	if got := c.At(15, 15); got.R != 255 {
		t.Fatalf("BR = %v", got)
	}
}

func TestRenderHeatmapMissing(t *testing.T) {
	rows := [][]float64{{math.NaN()}}
	c := NewCanvas(4, 4, black)
	RenderHeatmap(c, Rect{X: 0, Y: 0, W: 4, H: 4}, rows, HeatmapOptions{ColorMap: GreenBlackRed, Limit: 2})
	if got := c.At(2, 2); got != MissingColor {
		t.Fatalf("missing cell = %v", got)
	}
}

func TestRenderHeatmapGlobalAggregation(t *testing.T) {
	// 100 rows into 10 pixel rows: every pixel row aggregates 10 rows.
	rows := make([][]float64, 100)
	for i := range rows {
		v := 2.0
		if i >= 50 {
			v = -2.0
		}
		rows[i] = []float64{v}
	}
	c := NewCanvas(1, 10, black)
	RenderHeatmap(c, Rect{X: 0, Y: 0, W: 1, H: 10}, rows, HeatmapOptions{ColorMap: GreenBlackRed, Limit: 2})
	if got := c.At(0, 0); got.R != 255 {
		t.Fatalf("top strip = %v", got)
	}
	if got := c.At(0, 9); got.G != 255 {
		t.Fatalf("bottom strip = %v", got)
	}
}

func TestRenderHeatmapHighlight(t *testing.T) {
	rows := [][]float64{{0}, {0}, {0}, {0}}
	c := NewCanvas(20, 8, black)
	RenderHeatmap(c, Rect{X: 0, Y: 0, W: 20, H: 8}, rows, HeatmapOptions{
		ColorMap: GreenBlackRed, Limit: 2,
		Highlight: map[int]bool{1: true},
	})
	// Row 1 occupies pixel rows 2-3; highlight marker at left edge.
	if got := c.At(0, 2); got != white {
		t.Fatalf("highlight marker = %v", got)
	}
	if got := c.At(0, 0); got == white {
		t.Fatal("unhighlighted row has marker")
	}
}

func TestRenderHeatmapEmpty(t *testing.T) {
	c := NewCanvas(5, 5, black)
	RenderHeatmap(c, Rect{W: 5, H: 5}, nil, HeatmapOptions{})
	RenderHeatmap(c, Rect{W: 0, H: 0}, [][]float64{{1}}, HeatmapOptions{})
	RenderHeatmap(c, Rect{W: 5, H: 5}, [][]float64{{}}, HeatmapOptions{})
	// Just must not panic.
}

func TestRenderRowLabels(t *testing.T) {
	c := NewCanvas(60, 30, black)
	RenderRowLabels(c, Rect{X: 0, Y: 0, W: 60, H: 30}, []string{"AAA", "BBB", "CCC"}, white)
	found := false
	for y := 0; y < 10; y++ {
		for x := 0; x < 20; x++ {
			if c.At(x, y) == white {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no label pixels drawn")
	}
	// Too dense: silently draws nothing.
	c2 := NewCanvas(60, 5, black)
	RenderRowLabels(c2, Rect{X: 0, Y: 0, W: 60, H: 5}, []string{"A", "B", "C", "D", "E"}, white)
	for y := 0; y < 5; y++ {
		for x := 0; x < 60; x++ {
			if c2.At(x, y) == white {
				t.Fatal("dense labels should be suppressed")
			}
		}
	}
}

func TestRenderDendrogramLeftOfRows(t *testing.T) {
	rows := [][]float64{
		{1, 2, 3},
		{1.1, 2.1, 3.1},
		{3, 2, 1},
	}
	tree, err := cluster.HierarchicalCtx(context.Background(), rows, cluster.PearsonDist, cluster.AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCanvas(30, 30, black)
	RenderDendrogram(c, Rect{X: 0, Y: 0, W: 30, H: 30}, tree, LeftOfRows, white)
	// Something must be drawn, and only inside the rect.
	count := 0
	for y := 0; y < 30; y++ {
		for x := 0; x < 30; x++ {
			if c.At(x, y) == white {
				count++
			}
		}
	}
	if count < 10 {
		t.Fatalf("dendrogram drew only %d pixels", count)
	}
}

func TestRenderDendrogramAboveColumns(t *testing.T) {
	rows := [][]float64{{1, 2}, {2, 1}}
	tree, _ := cluster.HierarchicalCtx(context.Background(), rows, cluster.PearsonDist, cluster.AverageLinkage)
	c := NewCanvas(20, 10, black)
	RenderDendrogram(c, Rect{X: 0, Y: 0, W: 20, H: 10}, tree, AboveColumns, white)
	count := 0
	for y := 0; y < 10; y++ {
		for x := 0; x < 20; x++ {
			if c.At(x, y) == white {
				count++
			}
		}
	}
	if count == 0 {
		t.Fatal("array dendrogram drew nothing")
	}
}

func TestRenderDendrogramNilSafe(t *testing.T) {
	c := NewCanvas(10, 10, black)
	RenderDendrogram(c, Rect{W: 10, H: 10}, nil, LeftOfRows, white)
	single := &cluster.Tree{NLeaves: 1}
	RenderDendrogram(c, Rect{W: 10, H: 10}, single, LeftOfRows, white)
}

func TestRenderGOGraph(t *testing.T) {
	o := ontology.New()
	_ = o.AddTerm(&ontology.Term{ID: "GO:R", Name: "root"})
	_ = o.AddTerm(&ontology.Term{ID: "GO:A", Name: "alpha", Parents: []string{"GO:R"}})
	_ = o.AddTerm(&ontology.Term{ID: "GO:B", Name: "beta", Parents: []string{"GO:R"}})
	g := golem.LocalMap(o, []string{"GO:A", "GO:B"}, 0)
	lay := golem.LayoutGraph(g, 4)
	c := NewCanvas(200, 100, black)
	RenderGOGraph(c, Rect{X: 0, Y: 0, W: 200, H: 100}, g, lay, GOGraphOptions{
		Label: func(id string) string { return o.Term(id).Name },
	})
	// The canvas must not be all background anymore.
	bg := c.At(0, 0)
	diff := 0
	for y := 0; y < 100; y += 2 {
		for x := 0; x < 200; x += 2 {
			if c.At(x, y) != bg {
				diff++
			}
		}
	}
	if diff < 20 {
		t.Fatalf("GO graph rendered only %d differing pixels", diff)
	}
}

func TestRenderGOGraphEmpty(t *testing.T) {
	c := NewCanvas(10, 10, black)
	g := &golem.Graph{Focus: map[string]bool{}}
	RenderGOGraph(c, Rect{W: 10, H: 10}, g, golem.LayoutGraph(g, 1), GOGraphOptions{})
}

func TestPNGRoundTrip(t *testing.T) {
	c := NewCanvas(8, 8, black)
	c.FillRect(2, 2, 3, 3, red)
	var buf bytes.Buffer
	if err := c.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodePNG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Width() != 8 || back.Height() != 8 {
		t.Fatalf("decoded dims = %dx%d", back.Width(), back.Height())
	}
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if c.At(x, y) != back.At(x, y) {
				t.Fatalf("pixel (%d,%d) changed: %v vs %v", x, y, c.At(x, y), back.At(x, y))
			}
		}
	}
}

func TestSavePNG(t *testing.T) {
	c := NewCanvas(4, 4, red)
	path := t.TempDir() + "/out.png"
	if err := c.SavePNG(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := DecodePNG(f)
	if err != nil {
		t.Fatal(err)
	}
	if back.At(1, 1) != red {
		t.Fatalf("saved pixel = %v", back.At(1, 1))
	}
}

// SubImage returns the rectangle of the canvas as a standalone copy, for
// the tests to compare what was drawn.
func (c *Canvas) SubImage(x, y, w, h int) *image.RGBA {
	out := image.NewRGBA(image.Rect(0, 0, w, h))
	for yy := 0; yy < h; yy++ {
		for xx := 0; xx < w; xx++ {
			out.SetRGBA(xx, yy, c.At(x+xx, y+yy))
		}
	}
	return out
}
