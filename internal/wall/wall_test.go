package wall

import (
	"image/color"
	"testing"

	"forestview/internal/render"
)

// gradientScene paints pixel (x,y) of the wall-global coordinate system
// with a deterministic color, so tile/composite correctness is verifiable
// pixel by pixel.
type gradientScene struct{}

func (gradientScene) Render(c *render.Canvas, vp render.Rect, wallW, wallH int) {
	for y := 0; y < vp.H; y++ {
		for x := 0; x < vp.W; x++ {
			gx, gy := vp.X+x, vp.Y+y
			c.Set(x, y, color.RGBA{
				R: uint8(gx % 251),
				G: uint8(gy % 241),
				B: uint8((gx + gy) % 239),
				A: 255,
			})
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{TilesX: 2, TilesY: 2, TileW: 10, TileH: 10}).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{TilesX: 0, TilesY: 1, TileW: 1, TileH: 1},
		{TilesX: 1, TilesY: 1, TileW: 0, TileH: 1},
		{TilesX: 1, TilesY: 1, TileW: 1, TileH: 1, BezelPx: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d should fail", i)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	c := Config{TilesX: 3, TilesY: 2, TileW: 100, TileH: 50}
	if c.WallWidth() != 300 || c.WallHeight() != 100 {
		t.Fatalf("wall dims = %dx%d", c.WallWidth(), c.WallHeight())
	}
	if c.Pixels() != 30000 {
		t.Fatalf("pixels = %d", c.Pixels())
	}
}

func TestPresetConfigs(t *testing.T) {
	d := Desktop2MP()
	if d.Pixels() < 1_800_000 || d.Pixels() > 2_200_000 {
		t.Fatalf("desktop pixels = %d, want ~2MP", d.Pixels())
	}
	p := PrincetonWall()
	if p.Pixels() < 15_000_000 {
		t.Fatalf("princeton pixels = %d", p.Pixels())
	}
	l := LargeWall()
	ratio := float64(l.Pixels()) / float64(d.Pixels())
	if ratio < 50 || ratio > 200 {
		t.Fatalf("large/desktop ratio = %v, want ~two orders of magnitude", ratio)
	}
}

func TestNewWallErrors(t *testing.T) {
	if _, err := NewWall(Config{}, gradientScene{}); err == nil {
		t.Fatal("bad config should error")
	}
	if _, err := NewWall(Desktop2MP(), nil); err == nil {
		t.Fatal("nil scene should error")
	}
}

func TestNodeViewport(t *testing.T) {
	cfg := Config{TilesX: 3, TilesY: 2, TileW: 10, TileH: 20}
	n := NewNode(TileID{X: 2, Y: 1}, cfg, gradientScene{})
	vp := n.Viewport()
	if vp.X != 20 || vp.Y != 20 || vp.W != 10 || vp.H != 20 {
		t.Fatalf("viewport = %+v", vp)
	}
	if n.ID != (TileID{X: 2, Y: 1}) {
		t.Fatalf("ID = %v", n.ID)
	}
}

func TestWallRenderFrameBarrier(t *testing.T) {
	cfg := Config{TilesX: 4, TilesY: 2, TileW: 32, TileH: 32}
	w, err := NewWall(cfg, gradientScene{})
	if err != nil {
		t.Fatal(err)
	}
	fs := w.RenderFrame()
	if fs.Frame != 1 {
		t.Fatalf("frame = %d", fs.Frame)
	}
	if len(fs.Tiles) != 8 {
		t.Fatalf("tiles = %d", len(fs.Tiles))
	}
	if fs.SkewNS < 0 {
		t.Fatalf("skew = %d", fs.SkewNS)
	}
	if fs.TotalPixels != cfg.Pixels() {
		t.Fatalf("pixels = %d", fs.TotalPixels)
	}
	if fs.MaxRenderNS <= 0 {
		t.Fatalf("max render = %d", fs.MaxRenderNS)
	}
	// Every node rendered exactly one frame.
	for y := 0; y < cfg.TilesY; y++ {
		for x := 0; x < cfg.TilesX; x++ {
			if n := w.nodes[y*cfg.TilesX+x]; n.frames != 1 {
				t.Fatalf("node %d,%d frames = %d", x, y, n.frames)
			}
		}
	}
}

func TestWallNodeLookup(t *testing.T) {
	w, _ := NewWall(Config{TilesX: 2, TilesY: 2, TileW: 8, TileH: 8}, gradientScene{})
	// Nodes are laid out row-major, each owning its own tile.
	for i, n := range w.nodes {
		if want := (TileID{X: i % 2, Y: i / 2}); n.ID != want {
			t.Fatalf("node %d drives %v, want %v", i, n.ID, want)
		}
	}
	if w.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", w.NumNodes())
	}
}

// The compositor invariant: a tiled render composited back together is
// pixel-identical to rendering the scene once at full resolution.
func TestCompositeLossless(t *testing.T) {
	cfg := Config{TilesX: 3, TilesY: 2, TileW: 40, TileH: 30}
	scene := gradientScene{}
	w, err := NewWall(cfg, scene)
	if err != nil {
		t.Fatal(err)
	}
	w.RenderFrame()
	comp := w.Composite()

	ref := render.NewCanvas(cfg.WallWidth(), cfg.WallHeight(), color.RGBA{A: 255})
	scene.Render(ref, render.Rect{X: 0, Y: 0, W: cfg.WallWidth(), H: cfg.WallHeight()},
		cfg.WallWidth(), cfg.WallHeight())

	if comp.Width() != ref.Width() || comp.Height() != ref.Height() {
		t.Fatalf("composite dims %dx%d vs %dx%d", comp.Width(), comp.Height(), ref.Width(), ref.Height())
	}
	for y := 0; y < ref.Height(); y++ {
		for x := 0; x < ref.Width(); x++ {
			if comp.At(x, y) != ref.At(x, y) {
				t.Fatalf("pixel (%d,%d): composite %v vs reference %v",
					x, y, comp.At(x, y), ref.At(x, y))
			}
		}
	}
}

func TestCompositeWithBezel(t *testing.T) {
	cfg := Config{TilesX: 2, TilesY: 1, TileW: 10, TileH: 10, BezelPx: 4}
	w, _ := NewWall(cfg, gradientScene{})
	w.RenderFrame()
	comp := w.Composite()
	if comp.Width() != 24 || comp.Height() != 10 {
		t.Fatalf("bezel composite dims = %dx%d", comp.Width(), comp.Height())
	}
	// Bezel column is background black.
	if got := comp.At(11, 5); (got != color.RGBA{A: 255}) {
		t.Fatalf("bezel pixel = %v", got)
	}
}

func TestDoubleBufferSwap(t *testing.T) {
	cfg := Config{TilesX: 1, TilesY: 1, TileW: 8, TileH: 8}
	w, _ := NewWall(cfg, gradientScene{})
	n := w.nodes[0]
	// Before any frame, the front buffer is blank.
	if got := n.Front().At(3, 3); (got != color.RGBA{A: 255}) {
		t.Fatalf("front before frame = %v", got)
	}
	w.RenderFrame()
	if got := n.Front().At(3, 3); (got == color.RGBA{A: 255}) {
		t.Fatal("front after frame still blank — swap failed")
	}
}

func TestChecksumDeterminism(t *testing.T) {
	cfg := Config{TilesX: 2, TilesY: 2, TileW: 16, TileH: 16}
	w1, _ := NewWall(cfg, gradientScene{})
	w2, _ := NewWall(cfg, gradientScene{})
	f1 := w1.RenderFrame()
	f2 := w2.RenderFrame()
	sums := func(fs FrameStats) map[TileID]uint32 {
		m := make(map[TileID]uint32)
		for _, s := range fs.Tiles {
			m[s.ID] = s.Checksum
		}
		return m
	}
	s1, s2 := sums(f1), sums(f2)
	for id, c := range s1 {
		if s2[id] != c {
			t.Fatalf("tile %v checksum differs: %x vs %x", id, c, s2[id])
		}
	}
	// Different tiles of a gradient must differ.
	if s1[TileID{0, 0}] == s1[TileID{1, 1}] {
		t.Fatal("distinct tiles share a checksum — viewports broken")
	}
}

func TestMultipleFrames(t *testing.T) {
	w, _ := NewWall(Config{TilesX: 2, TilesY: 1, TileW: 8, TileH: 8}, gradientScene{})
	for i := 1; i <= 5; i++ {
		fs := w.RenderFrame()
		if fs.Frame != int64(i) {
			t.Fatalf("frame = %d, want %d", fs.Frame, i)
		}
	}
	if w.nodes[0].frames != 5 {
		t.Fatalf("node frames = %d", w.nodes[0].frames)
	}
}
