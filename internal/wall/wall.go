// Package wall simulates the scalable display wall the paper deploys
// ForestView on. Princeton's wall was a grid of projector tiles, each
// driven by its own PC, with a coordinator synchronizing frame swaps over a
// LAN. The simulation preserves that architecture: a Wall is a grid of
// Tiles, each owned by a render node (a goroutine), frames are rendered
// in parallel into per-tile framebuffers, a barrier collects completion,
// and a compositor assembles the full-wall image. Per-frame statistics
// (render time per tile, barrier skew, pixel throughput) quantify the
// scalability claims of Section 1.
package wall

import (
	"errors"
	"fmt"
	"hash/crc32"
	"image/color"
	"sync"
	"time"

	"forestview/internal/render"
)

// Config describes wall geometry.
type Config struct {
	// TilesX × TilesY projector tiles.
	TilesX, TilesY int
	// TileW × TileH pixels per tile.
	TileW, TileH int
	// BezelPx widens the composite by this many blank pixels between
	// tiles (0 for seamless projector blending, as at Princeton).
	BezelPx int
}

// Validate rejects non-positive geometry.
func (c Config) Validate() error {
	if c.TilesX < 1 || c.TilesY < 1 || c.TileW < 1 || c.TileH < 1 {
		return fmt.Errorf("wall: invalid geometry %dx%d tiles of %dx%d", c.TilesX, c.TilesY, c.TileW, c.TileH)
	}
	if c.BezelPx < 0 {
		return errors.New("wall: negative bezel")
	}
	return nil
}

// WallWidth and WallHeight return the logical scene resolution (without
// bezels; scenes are rendered as if the wall were one seamless surface).
func (c Config) WallWidth() int  { return c.TilesX * c.TileW }
func (c Config) WallHeight() int { return c.TilesY * c.TileH }

// Pixels returns the total pixel count of the wall.
func (c Config) Pixels() int { return c.WallWidth() * c.WallHeight() }

// Desktop2MP is the paper's reference point: a ~2-megapixel desktop
// display handled as a 1×1 wall.
func Desktop2MP() Config { return Config{TilesX: 1, TilesY: 1, TileW: 1600, TileH: 1200} }

// PrincetonWall approximates the 8×3-projector wall at Princeton
// (1024×768 per projector, ≈18.9 megapixels).
func PrincetonWall() Config { return Config{TilesX: 8, TilesY: 3, TileW: 1024, TileH: 768} }

// LargeWall is a next-generation configuration two orders of magnitude
// beyond the desktop (10×5 tiles of 2048×1536, ≈157 megapixels), the
// scaling regime the paper's introduction argues for.
func LargeWall() Config { return Config{TilesX: 10, TilesY: 5, TileW: 2048, TileH: 1536} }

// Scene is anything that can draw a viewport of a full-wall image. Render
// must be safe for concurrent calls with disjoint canvases: tiles render in
// parallel, exactly like the replicated application instances on a real
// wall cluster.
type Scene interface {
	Render(c *render.Canvas, viewport render.Rect, wallW, wallH int)
}

// TileID addresses one tile of the grid.
type TileID struct{ X, Y int }

// Node owns one tile: a double-buffered framebuffer pair and the scene
// replica it renders from. On a real wall each node is a PC; here it is a
// value driven by one of the coordinator's goroutines.
type Node struct {
	ID       TileID
	cfg      Config
	scene    Scene
	back     *render.Canvas
	front    *render.Canvas
	frames   int64
	swapLock sync.Mutex
}

// NewNode creates a node for the given tile.
func NewNode(id TileID, cfg Config, scene Scene) *Node {
	bg := color.RGBA{A: 255}
	return &Node{
		ID:    id,
		cfg:   cfg,
		scene: scene,
		back:  render.NewCanvas(cfg.TileW, cfg.TileH, bg),
		front: render.NewCanvas(cfg.TileW, cfg.TileH, bg),
	}
}

// Viewport returns this tile's window into the wall-sized scene.
func (n *Node) Viewport() render.Rect {
	return render.Rect{
		X: n.ID.X * n.cfg.TileW,
		Y: n.ID.Y * n.cfg.TileH,
		W: n.cfg.TileW,
		H: n.cfg.TileH,
	}
}

// TileStats reports one tile's work for one frame.
type TileStats struct {
	ID       TileID
	RenderNS int64
	// DoneAt is the wall-clock completion instant used to compute barrier
	// skew.
	DoneAt time.Time
	// Checksum is a CRC of the rendered pixels; identical scene state must
	// yield identical checksums, which the sync tests verify.
	Checksum uint32
}

// RenderFrame renders this node's viewport into the back buffer and
// returns stats. It does not swap; the coordinator orders the swap after
// the barrier, exactly like a swap-locked projector cluster.
func (n *Node) RenderFrame() TileStats {
	start := time.Now()
	n.scene.Render(n.back, n.Viewport(), n.cfg.WallWidth(), n.cfg.WallHeight())
	crc := crc32.ChecksumIEEE(n.back.Image().Pix)
	n.frames++
	return TileStats{
		ID:       n.ID,
		RenderNS: time.Since(start).Nanoseconds(),
		DoneAt:   time.Now(),
		Checksum: crc,
	}
}

// Swap promotes the back buffer to front. Called by the coordinator after
// every node has passed the frame barrier.
func (n *Node) Swap() {
	n.swapLock.Lock()
	n.back, n.front = n.front, n.back
	n.swapLock.Unlock()
}

// Front returns the currently displayed buffer.
func (n *Node) Front() *render.Canvas {
	n.swapLock.Lock()
	defer n.swapLock.Unlock()
	return n.front
}

// FrameStats aggregates one wall frame.
type FrameStats struct {
	Frame int64
	Tiles []TileStats
	// SkewNS is the spread between the first and last tile completing —
	// the synchronization quality metric of the wall.
	SkewNS int64
	// MaxRenderNS is the slowest tile (the frame's critical path).
	MaxRenderNS int64
	// TotalPixels rendered this frame.
	TotalPixels int
}

// Wall is the coordinator: all nodes in-process, rendered by a goroutine
// per tile, synchronized by a barrier.
type Wall struct {
	cfg   Config
	nodes []*Node
	frame int64
}

// NewWall builds a wall whose nodes all replicate the given scene.
func NewWall(cfg Config, scene Scene) (*Wall, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if scene == nil {
		return nil, errors.New("wall: nil scene")
	}
	w := &Wall{cfg: cfg}
	for y := 0; y < cfg.TilesY; y++ {
		for x := 0; x < cfg.TilesX; x++ {
			w.nodes = append(w.nodes, NewNode(TileID{X: x, Y: y}, cfg, scene))
		}
	}
	return w, nil
}

// NumNodes returns the node count.
func (w *Wall) NumNodes() int { return len(w.nodes) }

// RenderFrame renders one synchronized frame: all tiles in parallel, a
// barrier, then a simultaneous swap. It returns the frame statistics.
func (w *Wall) RenderFrame() FrameStats {
	w.frame++
	stats := make([]TileStats, len(w.nodes))
	var wg sync.WaitGroup
	for i, n := range w.nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			stats[i] = n.RenderFrame()
		}(i, n)
	}
	wg.Wait() // the frame barrier
	for _, n := range w.nodes {
		n.Swap()
	}
	return summarize(w.frame, stats, w.cfg)
}

func summarize(frame int64, stats []TileStats, cfg Config) FrameStats {
	fs := FrameStats{Frame: frame, Tiles: stats, TotalPixels: cfg.Pixels()}
	if len(stats) == 0 {
		return fs
	}
	first, last := stats[0].DoneAt, stats[0].DoneAt
	for _, s := range stats {
		if s.DoneAt.Before(first) {
			first = s.DoneAt
		}
		if s.DoneAt.After(last) {
			last = s.DoneAt
		}
		if s.RenderNS > fs.MaxRenderNS {
			fs.MaxRenderNS = s.RenderNS
		}
	}
	fs.SkewNS = last.Sub(first).Nanoseconds()
	return fs
}

// Composite assembles the front buffers into one wall-sized image
// (including bezel gaps when configured). On the physical wall this is
// what the projectors jointly display; here it is what the examples save
// as PNG.
func (w *Wall) Composite() *render.Canvas {
	bezel := w.cfg.BezelPx
	outW := w.cfg.WallWidth() + bezel*(w.cfg.TilesX-1)
	outH := w.cfg.WallHeight() + bezel*(w.cfg.TilesY-1)
	out := render.NewCanvas(outW, outH, color.RGBA{A: 255})
	for _, n := range w.nodes {
		x := n.ID.X * (w.cfg.TileW + bezel)
		y := n.ID.Y * (w.cfg.TileH + bezel)
		out.Blit(n.Front().Image(), x, y)
	}
	return out
}
