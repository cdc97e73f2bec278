package server

import (
	"sync/atomic"
	"time"

	"forestview/internal/shard"
)

// endpointStats holds the per-endpoint counters behind /api/stats. All
// fields are atomics so the hot path never takes a lock to record a
// request.
type endpointStats struct {
	requests    atomic.Int64
	errors      atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	coalesced   atomic.Int64 // requests that joined another's in-flight compute
	computed    atomic.Int64 // underlying computations actually executed
	rejected    atomic.Int64 // shed with a retryable 503 (saturation, outage, no ontology)
	latencyUS   atomic.Int64 // summed request latency, microseconds
	maxUS       atomic.Int64 // worst observed request latency, microseconds
}

// observe records one finished request.
func (e *endpointStats) observe(d time.Duration, failed bool) {
	e.requests.Add(1)
	if failed {
		e.errors.Add(1)
	}
	e.latencyUS.Add(d.Microseconds())
	storeMax(&e.maxUS, d.Microseconds())
}

// storeMax raises m to v if v is larger.
func storeMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// EndpointSnapshot is the JSON form of one endpoint's counters.
type EndpointSnapshot struct {
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	HitRate       float64 `json:"hit_rate"`
	Coalesced     int64   `json:"coalesced"`
	Computed      int64   `json:"computed"`
	Rejected      int64   `json:"rejected"`
	MeanLatencyUS int64   `json:"mean_latency_us"`
	MaxLatencyUS  int64   `json:"max_latency_us"`
}

func (e *endpointStats) snapshot() EndpointSnapshot {
	s := EndpointSnapshot{
		Requests:     e.requests.Load(),
		Errors:       e.errors.Load(),
		CacheHits:    e.cacheHits.Load(),
		CacheMisses:  e.cacheMisses.Load(),
		Coalesced:    e.coalesced.Load(),
		Computed:     e.computed.Load(),
		Rejected:     e.rejected.Load(),
		MaxLatencyUS: e.maxUS.Load(),
	}
	if lookups := s.CacheHits + s.CacheMisses; lookups > 0 {
		s.HitRate = float64(s.CacheHits) / float64(lookups)
	}
	if s.Requests > 0 {
		s.MeanLatencyUS = e.latencyUS.Load() / s.Requests
	}
	return s
}

// enrichKernelStats tracks GOLEM kernel executions behind the enrich cache:
// how often /api/enrich actually ran the bitset scan (vs being absorbed by
// the LRU or a coalesced flight), how those runs ended, and what they cost.
type enrichKernelStats struct {
	analyses  atomic.Int64 // kernel executions
	canceled  atomic.Int64 // ended by client disconnect (context error)
	failures  atomic.Int64 // other analysis errors (bad selections)
	analyzeUS atomic.Int64 // summed kernel latency, microseconds
	maxUS     atomic.Int64 // worst observed kernel latency, microseconds
}

// observe records one finished kernel run.
func (e *enrichKernelStats) observe(d time.Duration, err error) {
	e.analyses.Add(1)
	switch {
	case err == nil:
	case isContextErr(err):
		e.canceled.Add(1)
	default:
		e.failures.Add(1)
	}
	e.analyzeUS.Add(d.Microseconds())
	storeMax(&e.maxUS, d.Microseconds())
}

// EnrichCacheInfo is the enrich_cache section of /api/stats: the kernel
// executions the enrich key space cost. Its cache traffic is
// endpoints.enrich (HTML and API callers share the keys), its residency
// cache.prefixes.escatter and its term count compendium.go_terms; Analyses
// vs that endpoint's cache hits + coalesced is the "one scan per distinct
// gene list, not per request" criterion made observable.
type EnrichCacheInfo struct {
	Background    int   `json:"background"`
	Analyses      int64 `json:"analyses"`
	Canceled      int64 `json:"canceled"`
	Failures      int64 `json:"failures"`
	MeanAnalyzeUS int64 `json:"mean_analyze_us"`
	MaxAnalyzeUS  int64 `json:"max_analyze_us"`
}

// PrefetchInfo is the prefetch section of /api/stats: the speculative tile
// pipeline's full ledger. Every served tile predicts up to four
// neighbours and its pane's gate decides: each foreground tile moves the
// pane's FollowShare, an EWMA (weight 1/8, starting at 1) of "this tile
// was among the pane's last 64 predictions", and a pane whose share is
// below 0.25 has its predictions recorded but Withheld instead of
// enqueued. Enqueued splits into Rendered (speculative work
// that actually rasterized), Coalesced (a foreground request was already
// rendering the tile — singleflight absorbed the speculation), SkippedCached
// (already resident by the time the worker got to it), SkippedStale (the pane
// has no tree to render from: its clustering failed — the name is the one
// bench/layers.go reads), Shed (no render slot was idle — speculation never
// waits for one, so it never competes with foreground work) and
// Dropped (queue full at enqueue time). Served vs EvictedUnused is the
// prediction quality signal: tiles a real request later consumed vs tiles
// that died cold in the LRU.
type PrefetchInfo struct {
	Workers       int   `json:"workers"`
	Enqueued      int64 `json:"enqueued"`
	Withheld      int64 `json:"withheld"`
	Dropped       int64 `json:"dropped"`
	Rendered      int64 `json:"rendered"`
	Coalesced     int64 `json:"coalesced"`
	SkippedCached int64 `json:"skipped_cached"`
	SkippedStale  int64 `json:"skipped_stale"`
	Shed          int64 `json:"shed"`
	Served        int64 `json:"served"`
	EvictedUnused int64 `json:"evicted_unused"`
	Pending       int   `json:"pending"`
	// FollowShare is each pane's current follow share, by pane index.
	FollowShare []float64 `json:"follow_share"`
}

// ServerInfo is the server section of /api/stats: which daemon produced a
// measurement series, so a benchmark record is always attributable to the
// topology role (and Go runtime) that produced it.
type ServerInfo struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Role is "single", "shard" or "coordinator" (see Server.Role).
	Role string `json:"role"`
	// GoVersion is runtime.Version() of the serving binary.
	GoVersion string `json:"go_version"`
	// SpellKernel is tilecorr.KernelName(): the routines this replica
	// scores and clusters with. Replicas on different routines differ in
	// speed, and the Go routines from the assembly in the last bits of a
	// score.
	SpellKernel string `json:"spell_kernel"`
}

// StatsSnapshot is the /api/stats response body.
type StatsSnapshot struct {
	Server      ServerInfo                  `json:"server"`
	Compendium  CompendiumInfo              `json:"compendium"`
	Cache       CacheInfo                   `json:"cache"`
	TreeCache   TreeCacheInfo               `json:"tree_cache"`
	EnrichCache *EnrichCacheInfo            `json:"enrich_cache,omitempty"` // nil without an ontology
	Prefetch    *PrefetchInfo               `json:"prefetch,omitempty"`     // nil unless prefetching
	Scatter     *shard.StatsSnapshot        `json:"scatter,omitempty"`      // every role: a single daemon's has one member
	Shard       *ShardRoleInfo              `json:"shard,omitempty"`        // nil unless a shard backend
	Endpoints   map[string]EndpointSnapshot `json:"endpoints"`
	// EncodeFailures counts responses whose JSON encoding failed and were
	// converted to 500s by writeJSON; see the encode-failure regression.
	EncodeFailures int64 `json:"encode_failures"`
}

// TreeCacheInfo summarizes the per-dataset clustered-tree cache: how many
// panes exist, how many hold a built tree, and how the builds went. Builds
// vs Hits+Coalesced is the "recluster once per dataset, not per request"
// acceptance criterion made observable.
type TreeCacheInfo struct {
	Panes int `json:"panes"`
	Built int `json:"built"`
	// Building is the number of tree builds running now, at most
	// GOMAXPROCS: non-zero while a daemon boots or its cold panes are
	// first touched.
	Building    int     `json:"building"`
	Builds      int64   `json:"builds"`
	Hits        int64   `json:"hits"`
	Coalesced   int64   `json:"coalesced"`
	Failures    int64   `json:"failures"`
	MeanBuildMS float64 `json:"mean_build_ms"`
}

// ShardRoleInfo is the shard section of /api/stats: the shard's lifecycle
// state (active/draining), its membership view, what it holds and how many
// reloads changed that view.
type ShardRoleInfo struct {
	Self        string   `json:"self,omitempty"`
	Status      string   `json:"status"`
	Shards      []string `json:"shards,omitempty"`
	Generation  string   `json:"generation"`
	Replication int      `json:"replication"`
	Held        int      `json:"held_datasets"`
	Reloads     int64    `json:"reloads"`
}

// CompendiumInfo summarizes what the daemon loaded at startup.
type CompendiumInfo struct {
	Datasets int `json:"datasets"`
	Genes    int `json:"genes"`
	GOTerms  int `json:"go_terms"`
}

// CacheInfo summarizes shared-cache occupancy, overall and per key family
// (Prefixes sums to Entries/Bytes).
type CacheInfo struct {
	Entries  int                        `json:"entries"`
	Bytes    int64                      `json:"bytes"`
	MaxBytes int64                      `json:"max_bytes"`
	Prefixes map[string]PrefixOccupancy `json:"prefixes,omitempty"`
}
