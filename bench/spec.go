package main

import (
	"runtime"
	"time"
)

// This file is the benchmark's frozen contract: the workloads, the metrics
// with their units, directions and regression bounds, the load model and
// the preconditions. BENCHMARK.json at the repository root repeats the
// names, units and bounds; TestBenchmarkJSONMatchesSpec keeps the two in
// step.

// Compendium shape: the paper's scale (a ~6,000-gene yeast compendium).
// The fixture seed is a constant: --seed varies the request plan, never
// the data the program is set up over, so setup_s and mem_live_mb compare
// across seeds.
const (
	fixtureSeed     = 20070326 // IPDPS 2007
	fixtureGenes    = 6000
	fixtureModules  = 40
	fixtureDatasets = 24
	fixtureMinExp   = 12
	fixtureMaxExp   = 40
	fixtureMissing  = 0.02
	fixturePanes    = 4 // the first four datasets back /api/heatmap
	fixtureLeaves   = 2000
)

// Load model.
const (
	tilePx         = 256   // requested tile width and height
	searchTop      = 20    // top= of every /api/search
	enrichGenes    = 20    // genes per /api/enrich selection
	sloMS          = 100.0 // interactive limit a cruise op must meet
	warmupSeconds  = 1.5   // unmeasured closed-loop warm-up of the plan
	verifyEvery    = 20    // every 20th response is checked against the library
	traceOps       = 200   // ops of the traced pass
	poolQueries    = 64    // session-hot's Zipf-ranked query pool
	zipfS          = 1.2   // its skew
	freshShare     = 0.20  // session-hot's pinned share of never-seen ops
	sessionUsers   = 16    // interleaved sessions in flight in the plan
	fleetShards    = 4     // fleet-scatter: the shard4 shape
	fleetRepl      = 2     // at replication 2
	fleetEnrichPct = 20    // fleet-scatter: share of /api/enrich ops, percent
	cacheBytes     = 64 << 20
	prefetchers    = 2
)

// roundLength is how long one solo or sat segment of a measured run lasts:
// the two alternate, with a speed probe between, so that each segment is
// scaled by the pace the machine had while it ran.
const roundLength = time.Second

// setupReps is how many timed set-ups a run makes; setup_s is their
// median. Clustering four 6,000-row panes takes over five seconds, long
// enough to average itself and too long to repeat inside the driver's time
// cap; the half-second set-ups of the other workloads are made three times.
func setupReps(w *workload) int {
	if w.panes {
		return 1
	}
	return 3
}

// connections is C, the number of persistent connections (and client
// goroutines) that carry all load: min(nproc, 4).
func connections() int { return min(runtime.NumCPU(), 4) }

// workload describes one named traffic mix.
type workload struct {
	name string
	why  string
	// cruise is the open-loop arrival rate in ops/s of the traced run's
	// cruise phase, frozen at ~35% of the sat_qps this commit reached on the
	// calibration machine (README).
	cruise float64
	// satCap sizes the closed-loop plans: satCap ops per second of phase are
	// generated, 1.5 to 2.5 times what the calibration machine completes (a
	// phase whose plan runs out ends early and reports the time it covered).
	satCap float64
	fleet  bool // coordinator + shards instead of one daemon
	panes  bool // tiles are served, so set-up clusters the panes up front
}

var workloads = []workload{
	{
		name:   "search-cold",
		why:    "distinct 3-5 gene SPELL queries: the spell scan and JSON encode do the work, render and shard none, the LRU only writes",
		cruise: 24, satCap: 200,
	},
	{
		name:   "tile-cold",
		why:    "uncorrelated random 256x256 tiles over L0-L4: render and core slabs dominate, spell and golem idle, prefetch is pure waste",
		cruise: 29, satCap: 200, panes: true,
	},
	{
		name:   "session-hot",
		why:    "overview-zoom-search-enrich sessions, Zipf pool, 20% pinned fresh: p25 lives on the hit and prefetched path, the mean in the fresh misses",
		cruise: 85, satCap: 360, panes: true,
	},
	{
		name:   "fleet-scatter",
		why:    "search-cold's query stream plus 20% enrich through coordinator + 4 shards R=2: gob, loopback hop, partials and merge do the work",
		cruise: 8, satCap: 60, fleet: true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric is one named measurement. bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change is a
// regression; per-layer metrics carry none.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd are the metrics a user of the system sees, the same six on
// every workload, all measured under sustained closed-loop load, the only
// regime this class of machine repeats (README, "What repeats"), the four
// timings scaled to the reference pace (probe.go). The timing bounds are
// the contract's maximum because ten runs on the calibration machine
// spread by up to 13% of their median even so; mem_live_mb spreads by 1%. ok_share is the complement of the ISSUE's fail_share: a share
// that is 0 at HEAD cannot carry a bound relative to its median.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"lat_p25_ms", "ms", "lower", 0.25},
	{"lat_mean_ms", "ms", "lower", 0.25},
	{"sat_qps", "1/s", "higher", 0.25},
	{"ok_share", "share", "higher", 0.001},
	{"mem_live_mb", "MiB", "lower", 0.10},
}

// perLayer lists every single-layer metric the traced run reports, layer =
// package name. A metric that does not apply to a workload (shard.* on one
// daemon, spell.* on tile-cold) reads 0 there.
var perLayer = []metric{
	// set-up, by layer
	{"microarray.pcl_parse_s", "s", "lower", 0},
	{"spell.engine_build_s", "s", "lower", 0},
	{"golem.enricher_build_s", "s", "lower", 0},
	{"cluster.tree_s", "s", "lower", 0},
	{"core.cluster_s", "s", "lower", 0},
	{"core.pyramid_build_ms", "ms", "lower", 0},
	// kernels, medians over the traced pass
	{"spell.search_ms", "ms", "lower", 0},
	{"spell.search_allocs", "allocs", "lower", 0},
	{"spell.partial_ms", "ms", "lower", 0},
	{"spell.merge_ms", "ms", "lower", 0},
	{"golem.analyze_ms", "ms", "lower", 0},
	{"golem.partial_ms", "ms", "lower", 0},
	{"golem.merge_ms", "ms", "lower", 0},
	{"core.slab_us", "us", "lower", 0},
	{"render.heatmap_ms", "ms", "lower", 0},
	{"render.png_ms", "ms", "lower", 0},
	{"render.png_bytes", "B", "lower", 0},
	{"render.tile_allocs", "allocs", "lower", 0},
	// the daemon around them
	{"server.handle_miss_ms", "ms", "lower", 0},
	{"server.handle_hit_ms", "ms", "lower", 0},
	{"server.overhead_ms", "ms", "lower", 0},
	{"server.cache_get_ns", "ns", "lower", 0},
	{"server.cache_put_ns", "ns", "lower", 0},
	{"server.pool_run_us", "us", "lower", 0},
	{"server.cache_hits", "count", "higher", 0},
	{"server.cache_misses", "count", "lower", 0},
	{"server.coalesced", "count", "higher", 0},
	{"server.computed", "count", "lower", 0},
	{"server.rejected", "count", "lower", 0},
	{"server.cache_entries", "count", "lower", 0},
	{"server.cache_bytes", "B", "lower", 0},
	{"server.tree_builds", "count", "lower", 0},
	{"server.prefetch_rendered", "count", "lower", 0},
	{"server.prefetch_served", "count", "higher", 0},
	{"server.prefetch_shed", "count", "lower", 0},
	{"server.prefetch_evicted_unused", "count", "lower", 0},
	{"server.prefetch_useful_share", "share", "higher", 0},
	// the fleet path
	{"shard.scatter_ms", "ms", "lower", 0},
	{"shard.enrich_scatter_ms", "ms", "lower", 0},
	{"shard.wire_ms", "ms", "lower", 0},
	{"shard.wire_bytes", "B", "lower", 0},
	{"shard.hop_overhead_ms", "ms", "lower", 0},
	{"shard.groups_per_query", "count", "lower", 0},
	{"shard.requests", "count", "lower", 0},
	{"shard.failovers", "count", "lower", 0},
	{"shard.hedges", "count", "lower", 0},
	{"shard.retries", "count", "lower", 0},
	{"shard.breaker_skips", "count", "lower", 0},
	// the harness itself: split a lat_* move by endpoint and disposition,
	// and bound how much of it is the load generator
	{"client.n_ops", "count", "higher", 0},
	{"client.gen_late_p95_ms", "ms", "lower", 0},
	{"client.pace", "ratio", "lower", 0},
	{"client.rtt_p50_ms", "ms", "lower", 0},
	{"client.cruise_p50_ms", "ms", "lower", 0},
	{"client.cruise_p95_ms", "ms", "lower", 0},
	{"client.cruise_p99_ms", "ms", "lower", 0},
	{"client.slo_ok_share", "share", "higher", 0},
	{"client.sat_qps", "1/s", "higher", 0},
	{"client.search_p50_ms", "ms", "lower", 0},
	{"client.enrich_p50_ms", "ms", "lower", 0},
	{"client.tile_p50_ms", "ms", "lower", 0},
	{"client.hit_p50_ms", "ms", "lower", 0},
	{"client.miss_p50_ms", "ms", "lower", 0},
	{"client.warm_share", "share", "higher", 0},
	{"trace.span_cost_ns", "ns", "lower", 0},
}

// Preconditions: a run that violates one measured something other than
// what its workload is named for, so it exits nonzero without metrics.
const (
	minMissShareSearch = 0.95 // search-cold, fleet-scatter
	minMissShareTile   = 0.90 // tile-cold
	minWarmShare       = 0.70 // session-hot
	maxWarmShare       = 0.90
	maxGenLateP95MS    = 20.0 // the cruise's generator lateness, every workload
)
