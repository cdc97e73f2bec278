// Command wallsim drives the display wall simulation with a ForestView
// scene: it renders synchronized frames across the tile grid, reports the
// per-frame statistics the Figure-3 experiment summarizes (render time,
// barrier skew, pixel throughput), and can save the composited wall image.
//
// Usage:
//
//	wallsim -preset princeton -frames 10
//	wallsim -tiles-x 4 -tiles-y 2 -tile-w 1024 -tile-h 768 -out wall.png
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"forestview/internal/cluster"
	"forestview/internal/core"
	"forestview/internal/synth"
	"forestview/internal/wall"
)

func main() {
	var (
		preset = flag.String("preset", "", "wall preset: desktop, princeton, large")
		tilesX = flag.Int("tiles-x", 4, "tile columns")
		tilesY = flag.Int("tiles-y", 2, "tile rows")
		tileW  = flag.Int("tile-w", 1024, "tile width")
		tileH  = flag.Int("tile-h", 768, "tile height")
		frames = flag.Int("frames", 5, "frames to render")
		out    = flag.String("out", "", "save the final composited wall image as PNG")
		genes  = flag.Int("genes", 1200, "genes per synthetic dataset")
		nData  = flag.Int("datasets", 4, "datasets (panes)")
		seed   = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()
	if err := run(*preset, *tilesX, *tilesY, *tileW, *tileH, *frames, *out, *genes, *nData, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "wallsim:", err)
		os.Exit(1)
	}
}

func run(preset string, tilesX, tilesY, tileW, tileH, frames int, out string, genes, nData int, seed int64) error {
	cfg := wall.Config{TilesX: tilesX, TilesY: tilesY, TileW: tileW, TileH: tileH}
	switch preset {
	case "desktop":
		cfg = wall.Desktop2MP()
	case "princeton":
		cfg = wall.PrincetonWall()
	case "large":
		cfg = wall.LargeWall()
	case "":
	default:
		return fmt.Errorf("unknown preset %q (want desktop, princeton, large)", preset)
	}
	if frames < 1 {
		return fmt.Errorf("-frames %d: want at least 1", frames)
	}
	if nData < 1 {
		return fmt.Errorf("-datasets %d: want at least 1", nData)
	}

	// Build the ForestView scene.
	u := synth.NewUniverse(genes, 20, seed)
	col := synth.StressCaseCollection(u, seed+10)
	if nData < len(col) {
		col = col[:nData]
	}
	var cds []*core.ClusteredDataset
	for _, ds := range col {
		cd, err := core.Cluster(ds, core.ClusterOptions{
			Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage})
		if err != nil {
			return err
		}
		cds = append(cds, cd)
	}
	fv, err := core.New(cds)
	if err != nil {
		return err
	}
	// A selection exercises the synchronized zoom path during rendering.
	if err := fv.SelectRegion(0, 0, 39); err != nil {
		return err
	}
	scene := core.WallScene{FV: fv}

	w, err := wall.NewWall(cfg, scene)
	if err != nil {
		return err
	}
	fmt.Printf("wall: %dx%d tiles of %dx%d = %.1f megapixels (%d nodes)\n",
		cfg.TilesX, cfg.TilesY, cfg.TileW, cfg.TileH,
		float64(cfg.Pixels())/1e6, w.NumNodes())

	var totalNS int64
	for f := 0; f < frames; f++ {
		start := time.Now()
		fs := w.RenderFrame()
		frameNS := time.Since(start).Nanoseconds()
		totalNS += frameNS
		fmt.Printf("frame %d: %.1f ms wall-clock, slowest tile %.1f ms, barrier skew %.2f ms, %.1f Mpix/s\n",
			fs.Frame, float64(frameNS)/1e6, float64(fs.MaxRenderNS)/1e6,
			float64(fs.SkewNS)/1e6, float64(fs.TotalPixels)/(float64(frameNS)/1e9)/1e6)
	}
	fmt.Printf("mean frame: %.1f ms; sustained %.1f Mpix/s\n",
		float64(totalNS)/float64(frames)/1e6,
		float64(cfg.Pixels())*float64(frames)/(float64(totalNS)/1e9)/1e6)

	if out != "" {
		if err := w.Composite().SavePNG(out); err != nil {
			return err
		}
		fmt.Printf("composited wall image -> %s\n", out)
	}
	return nil
}
