package workload

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"
)

// planGen holds the session state NewPlan threads through op generation:
// the Zipf-ranked query pool, one tile walker per pane, and the current
// enrichment burst. All randomness flows through the single rng so the
// whole plan is a function of the seed.
type planGen struct {
	spec Spec
	rng  *rand.Rand

	pool []string   // pre-joined q= values, index 0 most popular
	zipf *rand.Zipf // ranks pool indexes

	walkers []tileWalker

	burstLeft int
	selection []string
}

// tileWalker pans and zooms a row window over one pane, the way a viewer
// follows an interactive user: mostly small steps to an adjacent window,
// occasionally halving or doubling the window, always in bounds.
type tileWalker struct {
	pane int // dataset reference
	rows int // pane row count
	from int // window start (inclusive)
	win  int // window size
	dir  int // +1 panning down, -1 panning up
}

func (g *planGen) init() {
	spec, rng := g.spec, g.rng

	if spec.Mix.Search > 0 {
		g.pool = make([]string, queryPool)
		seen := make(map[string]bool, queryPool)
		for i := range g.pool {
			// Distinct gene sets so distinct pool slots are distinct cache
			// keys; resample on the (rare) collision.
			for {
				ids := make([]string, queryGenes)
				for j, p := range rng.Perm(len(spec.Genes))[:queryGenes] {
					ids[j] = spec.Genes[p]
				}
				q := strings.Join(ids, ",")
				if !seen[q] {
					seen[q] = true
					g.pool[i] = q
					break
				}
			}
		}
		g.zipf = rand.NewZipf(rng, zipfS, 1, queryPool-1)
	}

	if spec.Mix.Heatmap > 0 {
		g.walkers = make([]tileWalker, len(spec.PaneRows))
		for i, rows := range spec.PaneRows {
			win := spec.TileRows
			if win > rows {
				win = rows
			}
			g.walkers[i] = tileWalker{
				pane: i,
				rows: rows,
				win:  win,
				from: rng.Intn(rows - win + 1),
				dir:  1 - 2*rng.Intn(2),
			}
		}
	}
}

// searchOp draws a query from the pool under the Zipf rank: hot queries
// repeat exactly (cache hits and coalescing under concurrency), the tail
// stays cold.
func (g *planGen) searchOp() Op {
	q := g.pool[g.zipf.Uint64()]
	return Op{
		Endpoint: "search",
		Path:     "/api/search?q=" + url.QueryEscape(q) + "&top=20",
	}
}

// heatmapOp advances one walker and requests its current window.
func (g *planGen) heatmapOp() Op {
	w := &g.walkers[g.rng.Intn(len(g.walkers))]
	switch g.rng.Intn(10) {
	case 0: // zoom in
		if w.win > 8 {
			w.win /= 2
		}
	case 1: // zoom out
		if w.win*2 <= w.rows {
			w.win *= 2
		}
	default: // pan by half a window, bouncing off the edges
		step := w.win / 2
		if step == 0 {
			step = 1
		}
		w.from += w.dir * step
	}
	if w.from+w.win > w.rows {
		w.from = w.rows - w.win
		w.dir = -1
	}
	if w.from < 0 {
		w.from = 0
		w.dir = 1
	}
	return Op{
		Endpoint: "heatmap",
		Path: fmt.Sprintf("/api/heatmap?dataset=%d&rows=%d:%d&w=%d&h=%d",
			w.pane, w.from, w.from+w.win, g.spec.TileSize, g.spec.TileSize),
	}
}

// enrichOp continues the current burst — the same selection re-analyzed,
// sometimes with one gene swapped, the way a user refines a list — or
// starts a fresh burst from a new contiguous slice of the universe.
func (g *planGen) enrichOp() Op {
	spec, rng := g.spec, g.rng
	if g.burstLeft <= 0 {
		n := min(enrichGenes, len(spec.Genes))
		start := rng.Intn(len(spec.Genes))
		g.selection = make([]string, n)
		for i := 0; i < n; i++ {
			g.selection[i] = spec.Genes[(start+i)%len(spec.Genes)]
		}
		g.burstLeft = enrichBurst
	} else if rng.Intn(2) == 0 {
		// Refine: swap one gene, keeping the burst correlated but not
		// identical — misses that share most of their work.
		g.selection = append([]string(nil), g.selection...)
		g.selection[rng.Intn(len(g.selection))] = spec.Genes[rng.Intn(len(spec.Genes))]
	}
	g.burstLeft--
	return Op{
		Endpoint: "enrich",
		Path:     "/api/enrich?genes=" + url.QueryEscape(strings.Join(g.selection, ",")),
	}
}
