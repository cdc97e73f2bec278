// Package server implements forestviewd's HTTP engine: one daemon that
// loads a compendium once and serves all three paper subsystems
// concurrently — SPELL ranked search (/api/search), GOLEM GO-term
// enrichment (/api/enrich) and ForestView heatmap tiles (/api/heatmap) —
// plus /healthz and /api/stats. It is the paper's integration claim
// ("these analyses become useful when combined behind one dynamically
// queryable front-end") rebuilt as a traffic-ready service:
//
//   - a sharded in-memory LRU cache holds search results, enrichment
//     tables and rendered PNG tiles under canonicalized query keys;
//   - request coalescing (singleflight) ensures a burst of identical
//     concurrent queries computes the underlying result exactly once;
//   - one admission Pool with fail-fast shedding keeps tile rasterization
//     from monopolizing the process under load;
//   - per-endpoint counters (requests, errors, hit rate, coalesced joins,
//     computations, latency) are exposed at /api/stats.
//
// The SPELL HTML page (internal/spellweb) mounts onto this server's mux
// and searches through the same cached path, so humans and API clients
// share one engine instance and one cache.
package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"forestview/internal/cluster"
	"forestview/internal/core"
	"forestview/internal/golem"
	"forestview/internal/microarray"
	"forestview/internal/shard"
	"forestview/internal/spell"
	"forestview/internal/spellweb"
	"forestview/internal/tilecorr"
)

// Config assembles a Server. Enricher and the dataset lists gate their
// endpoints (a daemon without an ontology serves 503 on /api/enrich
// rather than failing to start).
type Config struct {
	// Engine is the prepared SPELL compendium, required unless Scatter makes
	// the daemon a coordinator that holds no data.
	Engine *spell.Engine
	// Scatter makes the daemon a coordinator over the fleet it names.
	// Without it a daemon holding an engine coordinates itself: one
	// in-process member at R=1. Either way every search and enrichment —
	// the API and the HTML page alike — takes one path: scatter, merge,
	// cache the answer under the canonical query and the membership
	// generation. Degraded merges are never cached.
	Scatter *shard.Coordinator
	// ShardIndexes, when non-nil, makes the daemon a shard backend: entry
	// i is the global compendium index of the engine's dataset i (the
	// slice selected by shard.OwnedIndexesR), and /api/shard/search +
	// /api/shard/info come up, serving partials with globally remapped
	// dataset indexes. Requires Engine; length must match its compendium.
	ShardIndexes []int
	// ShardDatasetIDs is the full compendium dataset list in global order
	// — the boot catalog every fleet member agrees on. Required with
	// ShardIndexes (whose entries index into it): the shard recomputes
	// ownership groups from it for replicated requests and serves it at
	// /api/shard/info so coordinators stay dataset-stateless. A single
	// daemon's catalog is its engine's dataset names (New sets it).
	ShardDatasetIDs []string
	// FleetToken authorizes POST /api/admin/fleet on a coordinator
	// (runtime shard joins and leaves) and the shard-side admin endpoints
	// (drain, fleet view). Empty disables them: every request is refused.
	FleetToken string
	// ShardSelf is this shard's own fleet identity (its entry in the
	// -shards list). Setting it (with ShardIndexes) mounts the drain and
	// shard-fleet admin endpoints: the shard can then be drained gracefully
	// and can reload its membership view at runtime.
	ShardSelf string
	// ShardFleet is the shard's boot-time view of the fleet list, the
	// starting point for runtime membership reloads. Optional: without it
	// the shard serves its boot slice and refuses reloads.
	ShardFleet []string
	// ShardReplication is the fleet's replication factor as this shard
	// understands it, used to derive its owned slice after a reload
	// (default 1).
	ShardReplication int
	// ShardRawDatasets is read by nothing: a reload grows the engine by the
	// datasets it loads, and keeps no rows. The field stays only because
	// bench/topology.go, which a benchmarked change may not edit, assigns it
	// (ROADMAP item 1(o)).
	ShardRawDatasets []*microarray.Dataset
	// ShardLoader loads one dataset by its global catalog index, for
	// membership reloads that assign this shard datasets it does not hold.
	ShardLoader func(ctx context.Context, globalIndex int) (*microarray.Dataset, error)
	// ShardResolve is read by nothing: a shard dials no one. The field stays
	// only because bench/topology.go, which a benchmarked change may not
	// edit, assigns it (ROADMAP item 1(f)).
	ShardResolve func(string) string
	// OnDrained, when set, is called (once, on its own goroutine) when a
	// drain request flips the shard to draining: the daemon hooks its
	// graceful shutdown here so a drained shard exits by itself.
	OnDrained func()
	// Enricher is the prepared GOLEM context behind /api/enrich.
	Enricher *golem.Enricher
	// Datasets are pre-clustered panes behind /api/heatmap, indexable by
	// position or dataset name. The pane list is fixed here (New refuses a
	// nil entry): nothing swaps or adds a pane on a running daemon.
	Datasets []*core.ClusteredDataset
	// RawDatasets are unclustered panes, indexed after Datasets: the first
	// /api/heatmap touch clusters each one exactly once through the
	// server's tree cache (concurrent requests coalesce onto one build),
	// which keeps daemon startup off the clustering critical path. A pane
	// keeps its dataset's Name, Experiments and Data rows, sharing them
	// with the caller; nothing else of the dataset is kept (no Genes, ID
	// index, weights or string arena), so those are freed once the caller
	// drops it. The rows must not change after New.
	RawDatasets []*microarray.Dataset
	// TreeMetric and TreeLinkage configure the lazy clustering of
	// RawDatasets (defaults: Pearson distance, average linkage — the
	// Cluster 3.0 defaults). Pearson distance is the only metric a build
	// accepts; any other TreeMetric fails every tree.
	TreeMetric cluster.Metric
	// TreeLinkage — see TreeMetric.
	TreeLinkage cluster.Linkage
	// ClusterArrays additionally clusters the experiment (column) axis of
	// lazily built trees, enabling the atree=H column-dendrogram strip —
	// the paper's two-axis ForestView display.
	ClusterArrays bool

	// PrefetchWorkers enables speculative tile prefetch: each served
	// heatmap tile enqueues its predicted pan/zoom neighbours for
	// background rendering into the shared LRU, while the pane's recent
	// requests follow its predictions. 0 (the default) disables
	// speculation entirely; forestviewd runs 2. The queue holds
	// prefetchQueuePerWorker predictions a worker; those beyond it are
	// dropped, not queued.
	PrefetchWorkers int

	// CacheBytes budgets the shared LRU cache (default 64 MiB).
	CacheBytes int64
	// RenderWorkers bounds concurrent tile rasterizations (default 4).
	RenderWorkers int
	// RenderQueue bounds waiting render jobs before the daemon sheds load
	// with 503 (default 4×RenderWorkers). forestviewd has no flag for it; the
	// field stays only because the forestbench smoke gate, whose bursts are
	// sized in tiles rather than cores, names it.
	RenderQueue int
	// MaxGenes caps the gene ranking length a search request may ask for
	// (default 200); requests above it are clamped, keeping any single
	// query's response — and cache entry — bounded.
	MaxGenes int
	// MaxTileDim caps requested tile width and height in pixels
	// (default 2048).
	MaxTileDim int
}

// Server is the forestviewd HTTP engine. It implements http.Handler.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	cache    *Cache
	flights  flightGroup
	pool     *Pool
	trees    *treeCache
	prefetch *prefetcher // nil unless cfg.PrefetchWorkers > 0
	// coord answers every search and enrichment: cfg.Scatter, or the
	// coordinator over this daemon's one local member (shardrole.go).
	coord   *shard.Coordinator
	start   time.Time
	dsIndex map[string]int // dataset name -> pane index; read-only after New

	statSearch  endpointStats
	statEnrich  endpointStats
	statHeatmap endpointStats
	statHTML    endpointStats
	statStats   endpointStats
	statShard   endpointStats // /api/shard/* (shard role only)
	statFleet   endpointStats // /api/admin/fleet (coordinator role only)

	// shardSt is the holdings the local member computes on (engine, index
	// maps, membership view); see drain.go. Non-nil whenever Engine is.
	shardSt atomic.Pointer[shardState]
	// groupVw is the ownership-group view of the topology last asked for
	// (shardrole.go); derived on first use, replaced when another is named.
	groupVw atomic.Pointer[groupView]
	// shardMu serializes membership reloads (drain.go).
	shardMu      sync.Mutex
	draining     atomic.Bool
	shardReloads atomic.Int64

	// enrichKernel tracks enrichment computations (cache misses that
	// scattered), reported as the enrich_cache stats section.
	enrichKernel enrichKernelStats
	// encodeFailures counts JSON responses whose encoding failed (writeJSON
	// turned them into 500s); any nonzero value is a bug worth paging on.
	encodeFailures atomic.Int64
}

// New wires a Server from the config.
func New(cfg Config) (*Server, error) {
	st, err := newShardState(&cfg)
	if err != nil {
		return nil, err
	}
	if cfg.RenderWorkers <= 0 {
		cfg.RenderWorkers = 4
	}
	if cfg.RenderQueue <= 0 {
		cfg.RenderQueue = 4 * cfg.RenderWorkers
	}
	if cfg.MaxGenes <= 0 {
		cfg.MaxGenes = 200
	}
	if cfg.MaxTileDim <= 0 {
		cfg.MaxTileDim = 2048
	}
	dsIndex := make(map[string]int, len(cfg.Datasets)+len(cfg.RawDatasets))
	for i, cd := range cfg.Datasets {
		if cd == nil || cd.Data == nil {
			return nil, fmt.Errorf("server: pre-clustered dataset %d is nil", i)
		}
		dsIndex[cd.Data.Name] = i
	}
	for ri, ds := range cfg.RawDatasets {
		if ds == nil || ds.NumGenes() == 0 {
			// Fail at boot, not with a fresh 500 on every tile of the pane.
			return nil, fmt.Errorf("server: raw dataset %d is nil or has no genes", ri)
		}
		if _, taken := dsIndex[ds.Name]; !taken {
			dsIndex[ds.Name] = len(cfg.Datasets) + ri
		}
	}
	s := &Server{
		cfg:   cfg,
		coord: cfg.Scatter,
		mux:   http.NewServeMux(),
		cache: NewCache(cfg.CacheBytes),
		pool:  NewPool(cfg.RenderWorkers, cfg.RenderQueue),
		trees: newTreeCache(core.ClusterOptions{Metric: cfg.TreeMetric, Linkage: cfg.TreeLinkage, ClusterArrays: cfg.ClusterArrays},
			cfg.Datasets, cfg.RawDatasets),
		start:   time.Now(),
		dsIndex: dsIndex,
	}
	// The shard state and the tree cache hold what they need of these. A
	// stored copy would pin more: a caller's sub-slice of panes pins its whole
	// backing array, and the boot engine would outlive a growing reload.
	s.cfg.Engine, s.cfg.Datasets, s.cfg.RawDatasets, s.cfg.ShardRawDatasets = nil, nil, nil, nil
	if cfg.PrefetchWorkers > 0 {
		s.prefetch = newPrefetcher(s, cfg.PrefetchWorkers, prefetchQueuePerWorker*cfg.PrefetchWorkers)
	}

	s.mux.HandleFunc("/api/search", s.instrument(&s.statSearch, s.handleSearch))
	s.mux.HandleFunc("/api/enrich", s.instrument(&s.statEnrich, s.handleEnrich))
	s.mux.HandleFunc("/api/heatmap", s.instrument(&s.statHeatmap, s.handleHeatmap))
	s.mux.HandleFunc("/api/stats", s.instrument(&s.statStats, s.handleStats))
	s.shardSt.Store(st)
	if s.coord == nil {
		if s.coord, err = shard.NewCoordinator(shard.Config{Shards: []string{localMember}, Backend: local{s}}); err != nil {
			s.Close()
			return nil, err
		}
	}
	if cfg.ShardIndexes != nil {
		s.mux.HandleFunc(shard.SearchPath, s.instrument(&s.statShard, s.handleShardSearch))
		s.mux.HandleFunc(shard.InfoPath, s.instrument(&s.statShard, s.handleShardInfo))
		if cfg.ShardSelf != "" {
			s.mux.HandleFunc(shard.DrainPath, s.instrument(&s.statShard, s.fleetAdmin(s.handleShardDrain)))
			s.mux.HandleFunc(shard.ShardFleetPath, s.instrument(&s.statShard, s.fleetAdmin(s.handleShardFleet)))
		}
		if cfg.Enricher != nil {
			// Enrichment is a shard capability, not a fleet invariant: only
			// ontology-bearing shards mount the enrich paths, the rest 404
			// there and list no "enrich" capability in /api/shard/v1/info —
			// that 404 is the capability negotiation.
			s.mux.HandleFunc(shard.EnrichPath, s.instrument(&s.statShard, s.handleShardEnrich))
			s.mux.HandleFunc(shard.EnrichCatalogPath, s.instrument(&s.statShard, s.handleShardEnrichCatalog))
		}
	}
	if cfg.Scatter != nil {
		s.mux.HandleFunc("/api/admin/fleet", s.instrument(&s.statFleet, s.fleetAdmin(s.handleFleet)))
	}
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})

	// The SPELL HTML page shares this server's engine and cache: its
	// Searcher runs through the same cachedCompute keys as /api/search, with
	// its cache/compute activity accounted to the html endpoint.
	html := http.NewServeMux()
	spellweb.RegisterHTML(html, htmlSearcher{s})
	s.mux.HandleFunc("/", s.instrument(&s.statHTML, html.ServeHTTP))
	s.mux.HandleFunc("/search", s.instrument(&s.statHTML, html.ServeHTTP))
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops the prefetch workers (which take render slots), then waits
// for the renders holding a slot and refuses later ones.
func (s *Server) Close() {
	if s.prefetch != nil {
		s.prefetch.Close()
	}
	s.pool.Close()
}

// compendiumSize reports the dataset and gene counts this daemon answers
// for: the union of its coordinator's members' holdings (0, 0 while some
// member has not answered an info probe; the coordinator caches a complete
// answer, so only the first call pays a probe).
func (s *Server) compendiumSize() (datasets, genes int) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	info, err := s.coord.Info(ctx)
	if err != nil {
		return 0, 0
	}
	return info.Datasets, info.Genes
}

// searchWith is the one search path, /api/search's and the HTML page's; ep
// receives the cache/compute accounting, so page and API traffic stay
// separable in /api/stats while sharing one set of cache keys. disp is the
// cache disposition (hit/miss/coalesced) the handlers surface as the
// X-Forestview-Cache header.
func (s *Server) searchWith(ctx context.Context, ep *endpointStats, ids []string, opt spell.Options) (answer, string, error) {
	ids = spell.CanonicalQuery(ids)
	if opt.MaxGenes <= 0 || opt.MaxGenes > s.cfg.MaxGenes {
		opt.MaxGenes = s.cfg.MaxGenes
	}
	// Every result-shaping option must be in the key.
	key := fmt.Sprintf("scatter\x1f%016x\x1f%d\x1f%t\x1f%t\x1f%s",
		s.coord.Generation(), opt.MaxGenes, opt.IncludeQuery, opt.UniformWeights, joinIDs(ids))
	return cachedScatter(ctx, s, ep, key, func(ctx context.Context) (*spell.Result, any, shard.Meta, error) {
		res, meta, err := s.coord.SearchCtx(ctx, ids, opt)
		return res, scatterSearchResponse{res, meta}, meta, err
	})
}

// htmlSearcher adapts the shared search path for the HTML page: same
// cache keys, html-endpoint accounting.
type htmlSearcher struct{ *Server }

// SearchCtx implements spellweb.Searcher: the page request's
// context rides into the search (a closed tab cancels a whole scatter on
// a coordinator), and a degraded merge comes back with the disclosure the
// page must print — the HTML surface keeps the same honesty contract as
// the API's degraded headers.
func (h htmlSearcher) SearchCtx(ctx context.Context, ids []string, opt spell.Options) (*spell.Result, string, error) {
	a, _, err := h.searchWith(ctx, &h.statHTML, ids, opt)
	if err != nil {
		return nil, "", err
	}
	if a.meta.Degraded {
		return a.res, fmt.Sprintf("degraded result: only %d of %d shards answered; rankings are renormalized over the reachable slice of the compendium",
			a.meta.ShardsOK, a.meta.ShardsTotal), nil
	}
	return a.res, "", nil
}

func (h htmlSearcher) NumDatasets() int { d, _ := h.compendiumSize(); return d }
func (h htmlSearcher) NumGenes() int    { _, g := h.compendiumSize(); return g }

// scatterEnrich is /api/enrich's compute path: scatter the canonical
// selection over the members' background slices and merge the exact
// tallies, cached under the result-shaping options and the selection. The
// enrich_cache section of /api/stats counts these computations.
func (s *Server) scatterEnrich(ctx context.Context, sel []string, opt golem.Options) (answer, string, error) {
	key := fmt.Sprintf("escatter\x1f%016x\x1f%d\x1f%g\x1f%s",
		s.coord.Generation(), opt.MinSelected, opt.MaxPValue, joinIDs(sel))
	return cachedScatter(ctx, s, &s.statEnrich, key, func(ctx context.Context) (*spell.Result, any, shard.Meta, error) {
		t0 := time.Now()
		res, meta, err := s.coord.EnrichCtx(ctx, sel, opt)
		s.enrichKernel.observe(time.Since(t0), err)
		if err != nil {
			return nil, nil, meta, err
		}
		return nil, newEnrichResponse(sel, res, meta), meta, nil
	})
}

// joinIDs joins gene IDs for a cache key with each ID quoted, so an ID
// containing the field separator cannot collide with a multi-gene list.
func joinIDs(ids []string) string {
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(0x1f)
		}
		b.WriteString(strconv.Quote(id))
	}
	return b.String()
}

// Cache dispositions, surfaced to clients as the X-Forestview-Cache
// response header so load envelopes (and curl users) can attribute a
// request's latency to the layer that served it.
const (
	dispHit        = "hit"        // served from the shared LRU
	dispMiss       = "miss"       // this request executed the computation
	dispCoalesced  = "coalesced"  // joined another request's in-flight compute
	dispPrefetched = "prefetched" // served from the LRU, put there by speculation
)

// cacheHeader is the response header carrying the cache disposition.
const cacheHeader = "X-Forestview-Cache"

// cachedCompute is coalesce over the shared LRU: the result lives under key,
// charged cost(v), and any request may evict it. A computed value for which
// cacheable (optional) returns false is delivered to its waiters but never
// enters the cache — cachedScatter keeps degraded merges out this way.
func cachedCompute[T any](ctx context.Context, s *Server, ep *endpointStats, key string,
	cost func(T) int64, cacheable func(T) bool, compute func(context.Context) (T, error)) (T, string, error) {
	load := func() (T, bool) {
		v, ok := s.cache.Get(key)
		val, _ := v.(T)
		return val, ok
	}
	store := func(v T) {
		if cacheable == nil || cacheable(v) {
			s.cache.Put(key, v, cost(v))
		}
	}
	return coalesce(ctx, &s.flights, ep, key, load, store, compute)
}

// answer is what every role caches for a search or an enrichment: the
// merged search result (the HTML page renders it; nil for an enrichment),
// the scatter metadata, and the response body, encoded once inside the
// compute closure so that a hit costs a write, not a re-encode.
type answer struct {
	res  *spell.Result
	meta shard.Meta
	body []byte
}

// cachedScatter runs one scatter under key: scatter returns the merged
// result the page keeps (if any), the value the body encodes and the
// metadata. key carries the membership generation, so merges of one
// topology are never replayed under another. Degraded merges (a group
// unserved) are delivered but never cached: cached, they would keep
// answering for the survivors long after the shard recovered. A result that
// does not encode fails its computation.
func cachedScatter(ctx context.Context, s *Server, ep *endpointStats, key string,
	scatter func(context.Context) (*spell.Result, any, shard.Meta, error)) (answer, string, error) {
	return cachedCompute(ctx, s, ep, key,
		func(a answer) int64 { return searchCost(a.res) + int64(len(a.body)) },
		func(a answer) bool { return !a.meta.Degraded },
		func(ctx context.Context) (a answer, err error) {
			var v any
			if a.res, v, a.meta, err = scatter(ctx); err == nil {
				a.body, err = encodeJSON(v)
			}
			return a, err
		})
}

// searchCost approximates the resident size of an answer's search result
// (a fixed entry overhead for none).
func searchCost(r *spell.Result) int64 {
	n := int64(256)
	if r == nil {
		return n
	}
	for _, q := range r.Query {
		n += int64(len(q)) + 16
	}
	for _, d := range r.Datasets {
		n += int64(len(d.Name)) + 48
	}
	for _, g := range r.Genes {
		n += int64(len(g.ID)+len(g.Name)) + 40
	}
	return n
}

// instrument wraps a handler with the per-endpoint latency and error
// accounting behind /api/stats.
func (s *Server) instrument(ep *endpointStats, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		ep.observe(time.Since(t0), sw.status >= 400)
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Role reports how this daemon participates in the fleet: "coordinator"
// (scatters searches, holds no data), "shard" (serves partials for its
// slice) or "single" (the whole compendium in-process).
func (s *Server) Role() string {
	switch {
	case s.cfg.Scatter != nil:
		return "coordinator"
	case s.cfg.ShardIndexes != nil:
		return "shard"
	default:
		return "single"
	}
}

// Stats assembles the /api/stats snapshot.
func (s *Server) Stats() StatsSnapshot {
	prefixes := s.cache.Prefixes()
	nDatasets, nGenes := s.compendiumSize() // at most one probe (cached after success)
	scatter := s.coord.Stats()
	snap := StatsSnapshot{
		Server: ServerInfo{
			UptimeSeconds: time.Since(s.start).Seconds(),
			Role:          s.Role(),
			GoVersion:     runtime.Version(),
			SpellKernel:   tilecorr.KernelName(),
		},
		Compendium: CompendiumInfo{
			Datasets: nDatasets,
			Genes:    nGenes,
		},
		TreeCache: s.trees.snapshot(),
		Scatter:   &scatter,
		Cache: CacheInfo{
			Entries:  s.cache.Len(),
			Bytes:    s.cache.Bytes(),
			MaxBytes: s.cache.MaxBytes(),
			Prefixes: prefixes,
		},
		Endpoints: map[string]EndpointSnapshot{
			"search":  s.statSearch.snapshot(),
			"enrich":  s.statEnrich.snapshot(),
			"heatmap": s.statHeatmap.snapshot(),
			"html":    s.statHTML.snapshot(),
			"stats":   s.statStats.snapshot(),
		},
	}
	if s.cfg.ShardIndexes != nil {
		snap.Endpoints["shard"] = s.statShard.snapshot()
		st := s.shardState()
		snap.Shard = &ShardRoleInfo{
			Self:        s.cfg.ShardSelf,
			Status:      s.shardStatus(),
			Shards:      st.shards,
			Generation:  fmt.Sprintf("%016x", st.gen),
			Replication: st.repl,
			Held:        len(st.indexes),
			Reloads:     s.shardReloads.Load(),
		}
	}
	if s.prefetch != nil {
		pi := s.prefetch.snapshot()
		snap.Prefetch = &pi
	}
	if s.cfg.Scatter != nil {
		snap.Endpoints["fleet"] = s.statFleet.snapshot()
	}
	if s.cfg.Enricher != nil {
		snap.Compendium.GOTerms = s.cfg.Enricher.NumTerms()
		ec := &EnrichCacheInfo{
			Background:   s.cfg.Enricher.BackgroundSize(),
			Analyses:     s.enrichKernel.analyses.Load(),
			Canceled:     s.enrichKernel.canceled.Load(),
			Failures:     s.enrichKernel.failures.Load(),
			MaxAnalyzeUS: s.enrichKernel.maxUS.Load(),
		}
		if ec.Analyses > 0 {
			ec.MeanAnalyzeUS = s.enrichKernel.analyzeUS.Load() / ec.Analyses
		}
		snap.EnrichCache = ec
	}
	snap.EncodeFailures = s.encodeFailures.Load()
	return snap
}

// lookupDataset resolves a `dataset` query parameter to a pane index: a
// position index, or an exact dataset name when the reference does not
// parse as an index. Index takes precedence so every dataset stays
// addressable even when one is named like a number.
func (s *Server) lookupDataset(ref string) (int, bool) {
	if i, err := strconv.Atoi(ref); err == nil && i >= 0 && i < s.NumPanes() {
		return i, true
	}
	i, ok := s.dsIndex[ref]
	return i, ok
}

// NumPanes returns the number of heatmap panes (pre-clustered plus raw).
func (s *Server) NumPanes() int { return len(s.trees.panes) }

// WarmTrees clusters every pane up front: daemons that would rather pay at
// boot than on the first tile call this after New.
func (s *Server) WarmTrees(ctx context.Context) error {
	return s.trees.warm(ctx)
}
