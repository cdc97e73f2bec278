// Package workload generates and drives open-loop request workloads
// against a forestviewd daemon, and folds the recorded per-request
// envelopes into the pass/fail summary cmd/forestbench gates on. It
// measures nothing for the record: every committed number is bench/'s.
//
// The generator is *open-loop*: arrival times come from a Poisson process
// at a configured rate, fixed before the first request is sent, so a slow
// server cannot slow the offered load down. Closed-loop drivers (a fixed
// worker pool of request-response loops) understate tail latency under
// saturation — every stalled worker silently withholds the requests it
// would have issued, the classic coordinated-omission trap. Here a
// request's latency is measured from its *scheduled* arrival, so queueing
// delay the server caused is charged to the server.
//
// Sessions are realistic mixes of the daemon's three workloads:
//
//   - SPELL searches drawn Zipf-style from a popular-query pool, so hot
//     queries repeat (exercising the cache/coalescing path) while a long
//     tail stays cold;
//   - heatmap tile walks that pan and zoom over adjacent row windows of a
//     pane, the access pattern of an interactive viewer;
//   - GOLEM enrich bursts: a selection is analyzed several times in close
//     succession with small mutations, the way a user refines a gene list.
//
// A Plan is fully materialized by NewPlan and deterministic under its
// seed: the same Spec always produces the same ops at the same offsets,
// so runs are reproducible and replayable across topologies.
package workload

import (
	"fmt"
	"math/rand"
	"time"
)

// Mix weights the session types; entries are relative (only ratios
// matter). A zero weight disables that op type entirely.
type Mix struct {
	Search  int `json:"search"`
	Heatmap int `json:"heatmap"`
	Enrich  int `json:"enrich"`
	Stats   int `json:"stats"`
}

// DefaultMix approximates an interactive exploration session: searching
// dominates, tile pulls follow the viewer around, enrichment punctuates.
func DefaultMix() Mix { return Mix{Search: 5, Heatmap: 3, Enrich: 2, Stats: 0} }

// Spec configures a Plan.
type Spec struct {
	// Rate is the open-loop arrival rate in requests/second.
	Rate float64
	// Duration bounds the arrival schedule.
	Duration time.Duration
	// Seed makes the plan deterministic.
	Seed int64
	// Mix weights the op types (zero value = DefaultMix).
	Mix Mix

	// Genes is the queryable gene universe (required when Mix.Search or
	// Mix.Enrich is positive).
	Genes []string
	// PaneRows lists the row count of each heatmap pane; index is the
	// dataset reference (required when Mix.Heatmap is positive).
	PaneRows []int
	// TileRows is the walker's initial row-window size (default 64).
	TileRows int
	// TileSize is the requested tile width and height in pixels
	// (default 128).
	TileSize int
}

// The shape of a session, fixed: no gate ever varied these.
const (
	queryGenes  = 3   // genes per search query (the daemon rejects single-gene searches)
	queryPool   = 64  // distinct candidate queries the Zipf draw ranks over
	zipfS       = 1.2 // Zipf skew: a few queries dominate, the tail stays long
	enrichBurst = 4   // ops per enrichment burst
	enrichGenes = 20  // genes per enrichment selection
	zoomEvery   = 8   // pan steps between zoom transitions in a panwalk plan
)

// Op is one scheduled request.
type Op struct {
	// At is the scheduled arrival offset from run start.
	At time.Duration `json:"at"`
	// Endpoint labels the op for per-endpoint analysis ("search",
	// "heatmap", "enrich", "stats").
	Endpoint string `json:"endpoint"`
	// Path is the request path and query string.
	Path string `json:"path"`
}

// Plan is a fully materialized open-loop schedule.
type Plan struct {
	Ops []Op
}

// withDefaults fills the zero-valued knobs.
func (s Spec) withDefaults() Spec {
	if s.Mix == (Mix{}) {
		s.Mix = DefaultMix()
	}
	if s.TileRows <= 0 {
		s.TileRows = 64
	}
	if s.TileSize <= 0 {
		s.TileSize = 128
	}
	return s
}

// validate rejects a spec no schedule can be drawn from.
func (s Spec) validate() error {
	if s.Rate <= 0 {
		return fmt.Errorf("workload: rate must be positive, got %g", s.Rate)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("workload: duration must be positive, got %v", s.Duration)
	}
	m := s.Mix
	if m.Search < 0 || m.Heatmap < 0 || m.Enrich < 0 || m.Stats < 0 {
		return fmt.Errorf("workload: negative mix weight %+v", m)
	}
	if m.Search+m.Heatmap+m.Enrich+m.Stats == 0 {
		return fmt.Errorf("workload: empty mix")
	}
	if m.Search > 0 && len(s.Genes) < queryGenes {
		return fmt.Errorf("workload: search mix needs >= %d genes, have %d", queryGenes, len(s.Genes))
	}
	if m.Enrich > 0 && len(s.Genes) == 0 {
		return fmt.Errorf("workload: enrich mix needs a gene universe")
	}
	if m.Heatmap > 0 {
		if len(s.PaneRows) == 0 {
			return fmt.Errorf("workload: heatmap mix needs pane row counts")
		}
		for i, n := range s.PaneRows {
			if n <= 0 {
				return fmt.Errorf("workload: pane %d has %d rows", i, n)
			}
		}
	}
	return nil
}

// NewPlan materializes the open-loop schedule for spec. The result is a
// pure function of the spec (including its seed).
func NewPlan(spec Spec) (*Plan, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	m := spec.Mix
	total := m.Search + m.Heatmap + m.Enrich + m.Stats

	rng := rand.New(rand.NewSource(spec.Seed))
	g := &planGen{spec: spec, rng: rng}
	g.init()

	plan := &Plan{}
	for _, t := range spec.arrivals(rng) {
		r := rng.Intn(total)
		var op Op
		switch {
		case r < m.Search:
			op = g.searchOp()
		case r < m.Search+m.Heatmap:
			op = g.heatmapOp()
		case r < m.Search+m.Heatmap+m.Enrich:
			op = g.enrichOp()
		default:
			op = Op{Endpoint: "stats", Path: "/api/stats"}
		}
		op.At = t
		plan.Ops = append(plan.Ops, op)
	}
	return plan, nil
}

// arrivals draws the arrival schedule: a homogeneous Poisson process at
// Rate, cut off at Duration.
func (s Spec) arrivals(rng *rand.Rand) []time.Duration {
	var out []time.Duration
	for t := time.Duration(float64(time.Second) * rng.ExpFloat64() / s.Rate); t < s.Duration; t += time.Duration(float64(time.Second) * rng.ExpFloat64() / s.Rate) {
		out = append(out, t)
	}
	return out
}

// NewPanwalkPlan materializes a heatmap-only schedule that mimics an
// interactive viewer panning through a clustered pane: every op moves one
// full window from the previous one (down until the pane edge, then back
// up), with a zoom transition every zoomEvery pans — doubling the window
// around its center (zoom out) or narrowing to its center half (zoom in).
// These are exactly the neighbourhoods the daemon's speculative prefetcher
// predicts, so against a prefetching server the steady-state walk should
// land almost entirely on prefetched or cached tiles; against a
// non-prefetching server every fresh window is a miss. The result is a
// pure function of the spec.
func NewPanwalkPlan(spec Spec) (*Plan, error) {
	spec = spec.withDefaults()
	spec.Mix = Mix{Heatmap: 1}
	if err := spec.validate(); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(spec.Seed))
	walkers := make([]panWalker, len(spec.PaneRows))
	for i, rows := range spec.PaneRows {
		win := spec.TileRows
		if win > rows {
			win = rows
		}
		walkers[i] = panWalker{pane: i, rows: rows, to: win, dir: 1}
	}

	plan := &Plan{}
	for _, t := range spec.arrivals(rng) {
		w := &walkers[rng.Intn(len(walkers))]
		plan.Ops = append(plan.Ops, Op{
			At:       t,
			Endpoint: "heatmap",
			Path: fmt.Sprintf("/api/heatmap?dataset=%d&rows=%d:%d&w=%d&h=%d",
				w.pane, w.from, w.to, spec.TileSize, spec.TileSize),
		})
		w.step(rng)
	}
	return plan, nil
}

// panWalker holds one pane's walk state. Unlike the mixed plan's
// tileWalker (half-window hops), it moves in whole windows and zooms with
// the prefetcher's own parent/child geometry, so predicted and requested
// tiles share cache keys.
type panWalker struct {
	pane, rows int
	from, to   int // current window [from, to)
	dir        int // +1 panning down, -1 panning up
	pans       int // pans since the last zoom
}

// step advances to the next window.
func (w *panWalker) step(rng *rand.Rand) {
	span := w.to - w.from
	if span >= w.rows {
		return // the window already covers the whole pane; nowhere to go
	}
	if w.pans++; w.pans >= zoomEvery {
		w.pans = 0
		if rng.Intn(2) == 0 && 2*span < w.rows {
			// Zoom out to the parent window: double span, same center.
			center := (w.from + w.to) / 2
			w.from = max(0, center-span)
			w.to = min(w.rows, w.from+2*span)
			return
		}
		if span >= 16 {
			// Zoom in to the child window: the center half.
			w.from += span / 4
			w.to = min(w.rows, w.from+span/2)
			return
		}
		// Too small to zoom in, too large to zoom out: fall through to a pan.
	}
	if w.dir > 0 {
		if w.to >= w.rows {
			w.dir = -1
		} else {
			w.from, w.to = w.to, min(w.to+span, w.rows)
			return
		}
	}
	if w.from <= 0 {
		w.dir = 1
		w.from, w.to = w.to, min(w.to+span, w.rows)
		return
	}
	w.from, w.to = max(0, w.from-span), w.from
}
