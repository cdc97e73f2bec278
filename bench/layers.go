package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"forestview/internal/golem"
	"forestview/internal/render"
	"forestview/internal/server"
	"forestview/internal/shard"
	"forestview/internal/spell"
)

// This file is the traced pass and the standalone layer timings: the
// per-layer half of the benchmark. Nothing here feeds an end-to-end
// metric.

// layerSamples collects, per per-layer metric name, one value per traced
// op; the report takes medians.
type layerSamples map[string][]float64

func (ls layerSamples) add(name string, v float64) { ls[name] = append(ls[name], v) }

// mallocs counts the heap allocations f makes. Only meaningful while
// nothing else runs, which the traced pass arranges.
func mallocs(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// prefetchMark is the prefetcher's ledger at one instant: jobs queued and
// jobs a worker has finished with.
type prefetchMark struct{ queued, resolved int64 }

func markPrefetch(srv *server.Server) prefetchMark {
	p := srv.Stats().Prefetch
	if p == nil {
		return prefetchMark{}
	}
	return prefetchMark{queued: p.Enqueued, resolved: p.Rendered + p.Coalesced + p.SkippedStale + p.Shed}
}

// awaitPrefetch waits until every speculative job queued since base has
// been resolved, so the next span is timed with nothing else in flight.
func awaitPrefetch(srv *server.Server, base prefetchMark) {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if m := markPrefetch(srv); m.resolved-base.resolved >= m.queued-base.queued {
			return
		}
	}
}

// settlePrefetch waits for the ledger to stop moving for three reads 10 ms
// apart, longer than a speculative render takes: the load phase's last
// speculation has drained.
func settlePrefetch(srv *server.Server) prefetchMark {
	m := markPrefetch(srv)
	for i, still := 0, 0; i < 100 && still < 3; i++ {
		time.Sleep(10 * time.Millisecond)
		next := markPrefetch(srv)
		if next == m {
			still++
		} else {
			still = 0
		}
		m = next
	}
	return m
}

// tracedPass runs ops one at a time against the real topology and, for
// each, first re-executes the kernels the request will need on the
// reference's standalone layer objects, recording a span around every
// call; it also returns each response's size. twins are further ops of the
// same stream: the fleet's direct scatter runs on an op's twin, because
// scattering the op itself would warm the shards' partial caches for the
// handler span that follows.
func tracedPass(ctx context.Context, tp *topology, ref *reference, fx *fixture, ops, twins []op) (*recorder, layerSamples, []int, error) {
	rec, ls := newRecorder(), layerSamples{}
	var groups [][]string
	var groupIdx [][]int
	var catalog *golem.TermCatalog
	if tp.coord != nil {
		groups = shard.Groups(fx.names, tp.shardIDs, fleetRepl)
		for _, owners := range groups {
			groupIdx = append(groupIdx, shard.GroupIndexes(fx.names, tp.shardIDs, fleetRepl, owners))
		}
		catalog = ref.enricher.Catalog()
	}
	// The fleet's twin inputs, by kind.
	twin := map[opKind][]op{}
	for _, o := range twins {
		twin[o.kind] = append(twin[o.kind], o)
	}
	nextTwin := func(k opKind) (op, error) {
		if len(twin[k]) == 0 {
			return op{}, fmt.Errorf("traced pass ran out of %s twins", k)
		}
		o := twin[k][0]
		twin[k] = twin[k][1:]
		return o, nil
	}

	base := settlePrefetch(tp.front)
	sizes := make([]int, len(ops))

	for i := range ops {
		o := &ops[i]
		handle := rec.reserve(i, "server.handle")
		var kernels time.Duration
		var err error
		switch {
		case o.kind == opSearch && tp.coord == nil:
			ls.add("spell.search_allocs", mallocs(func() {
				kernels = rec.child(i, handle, "spell.search", func() { _, err = ref.engine.Search(o.genes, searchOptions) })
			}))
			ls.add("spell.search_ms", ms(kernels))

		case o.kind == opEnrich && tp.coord == nil:
			kernels = rec.child(i, handle, "golem.analyze", func() { _, err = ref.enricher.Analyze(o.genes, golem.Options{MinSelected: 1}) })
			ls.add("golem.analyze_ms", ms(kernels))

		case o.kind == opTile:
			level := tileLevel(o.to-o.from, ref.dss[o.pane].NumGenes())
			var rows [][]float64
			var canvas *render.Canvas
			var png bytes.Buffer
			var slab, draw, enc time.Duration
			ls.add("render.tile_allocs", mallocs(func() {
				slab = rec.child(i, handle, "core.slab", func() { rows = ref.tileSlab(o, level) })
				draw = rec.child(i, handle, "render.heatmap", func() { canvas = drawTile(rows) })
				enc = rec.child(i, handle, "render.png", func() { err = canvas.EncodePNG(&png) })
			}))
			kernels = slab + draw + enc
			ls.add("core.slab_us", float64(slab)/float64(time.Microsecond))
			ls.add("render.heatmap_ms", ms(draw))
			ls.add("render.png_ms", ms(enc))
			ls.add("render.png_bytes", float64(png.Len()))

		case o.kind == opSearch:
			tw, terr := nextTwin(opSearch)
			if terr != nil {
				return nil, nil, nil, terr
			}
			scatter := rec.reserve(i, "shard.scatter")
			rec.spans[scatter-1].Parent, rec.spans[scatter-1].Twin = handle, true
			parts := make([]spell.Partial, 0, len(groups))
			var slowest, wire time.Duration
			var wireBytes int
			for _, idx := range groupIdx {
				var p *spell.Partial
				d := rec.child(i, scatter, "spell.partial", func() {
					p, err = ref.engine.PartialSearchSubsetCtx(ctx, o.genes, idx, spell.Options{})
				})
				if err != nil {
					return nil, nil, nil, fmt.Errorf("traced op %d: %w", i, err)
				}
				ls.add("spell.partial_ms", ms(d))
				slowest = max(slowest, d)
				var decoded spell.Partial
				d = rec.child(i, scatter, "shard.wire", func() {
					var buf bytes.Buffer
					if err = gob.NewEncoder(&buf).Encode(p); err == nil {
						wireBytes = buf.Len()
						err = gob.NewDecoder(&buf).Decode(&decoded)
					}
				})
				if err != nil {
					return nil, nil, nil, fmt.Errorf("traced op %d: gob round trip: %w", i, err)
				}
				ls.add("shard.wire_ms", ms(d))
				ls.add("shard.wire_bytes", float64(wireBytes))
				wire = max(wire, d)
				parts = append(parts, decoded)
			}
			merge := rec.child(i, scatter, "spell.merge", func() { _, err = spell.Merge(parts, searchOptions) })
			if err != nil {
				return nil, nil, nil, fmt.Errorf("traced op %d: %w", i, err)
			}
			ls.add("spell.merge_ms", ms(merge))
			rec.time(scatter, func() { _, _, err = tp.coord.SearchCtx(ctx, tw.genes, searchOptions) })
			kernels = rec.spans[scatter-1].dur()
			ls.add("shard.scatter_ms", ms(kernels))
			// The group requests run side by side, so the slowest partial and
			// its wire time, not their sums, stand between scatter and merge.
			ls.add("shard.hop_overhead_ms", ms(kernels-slowest-wire-merge))

		case o.kind == opEnrich:
			tw, terr := nextTwin(opEnrich)
			if terr != nil {
				return nil, nil, nil, terr
			}
			scatter := rec.reserve(i, "shard.enrich_scatter")
			rec.spans[scatter-1].Parent, rec.spans[scatter-1].Twin = handle, true
			parts := make([]*golem.PartialCounts, len(groups))
			for gi := range groups {
				d := rec.child(i, scatter, "golem.partial", func() {
					parts[gi], err = ref.enricher.PartialAnalyze(o.genes, gi, len(groups))
				})
				if err != nil {
					return nil, nil, nil, fmt.Errorf("traced op %d: %w", i, err)
				}
				ls.add("golem.partial_ms", ms(d))
			}
			merge := rec.child(i, scatter, "golem.merge", func() {
				_, err = golem.MergeCounts(catalog, parts, golem.Options{MinSelected: 1})
			})
			if err != nil {
				return nil, nil, nil, fmt.Errorf("traced op %d: %w", i, err)
			}
			ls.add("golem.merge_ms", ms(merge))
			rec.time(scatter, func() { _, _, err = tp.coord.EnrichCtx(ctx, tw.genes, golem.Options{MinSelected: 1}) })
			kernels = rec.spans[scatter-1].dur()
			ls.add("shard.enrich_scatter_ms", ms(kernels))
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("traced op %d (%s): %w", i, o.path, err)
		}

		resp := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, o.path, nil)
		rec.time(handle, func() { tp.front.ServeHTTP(resp, req) })
		if resp.Code != http.StatusOK {
			return nil, nil, nil, fmt.Errorf("traced op %d (%s): status %d: %s", i, o.path, resp.Code, resp.Body.String())
		}
		sizes[i] = resp.Body.Len()
		disp := resp.Header().Get("X-Forestview-Cache")
		rec.spans[handle-1].Note = disp
		d := rec.spans[handle-1].dur()
		if disp == "miss" {
			ls.add("server.handle_miss_ms", ms(d))
			if tp.coord == nil {
				ls.add("server.overhead_ms", ms(d-kernels))
			}
		} else {
			// A hit re-executed nothing: its kernels stay in the file as
			// detached measurements.
			rec.detach(handle, "parent was a "+disp)
			ls.add("server.handle_hit_ms", ms(d))
		}
		awaitPrefetch(tp.front, base)
	}
	return rec, ls, sizes, nil
}

// standaloneLayers times the layer objects that have no request of their
// own: the shared LRU with the traced ops' keys and response sizes, the
// render pool's hand-off, the cost of recording a span, and the loopback
// round trip under every client-side latency.
func standaloneLayers(ctx context.Context, hc *httpClient, ops []op, sizes []int) (map[string]float64, error) {
	out := map[string]float64{}

	// 20 generations of the traced keys: a tile-sized working set overflows
	// the 64 MiB budget as it does in the run, so puts include evictions.
	const generations = 20
	cache := server.NewCache(cacheBytes)
	values := make([][]byte, len(ops))
	for i := range values {
		values[i] = make([]byte, sizes[i])
	}
	keys := make([]string, 0, generations*len(ops))
	for g := 0; g < generations; g++ {
		for i := range ops {
			keys = append(keys, fmt.Sprintf("%s#%d", ops[i].path, g))
		}
	}
	t := time.Now()
	for k, key := range keys {
		cache.Put(key, values[k%len(ops)], int64(sizes[k%len(ops)])+64)
	}
	out["server.cache_put_ns"] = float64(time.Since(t).Nanoseconds()) / float64(len(keys))
	t = time.Now()
	for _, key := range keys {
		cache.Get(key)
	}
	out["server.cache_get_ns"] = float64(time.Since(t).Nanoseconds()) / float64(len(keys))

	const poolRuns = 2000
	pool := server.NewPool(runtime.GOMAXPROCS(0), 4*runtime.GOMAXPROCS(0))
	t = time.Now()
	for i := 0; i < poolRuns; i++ {
		if _, err := pool.Run(ctx, func() (any, error) { return nil, nil }); err != nil {
			pool.Close()
			return nil, fmt.Errorf("pool run: %w", err)
		}
	}
	out["server.pool_run_us"] = float64(time.Since(t).Microseconds()) / poolRuns
	pool.Close()

	const spanRuns = 100000
	rec := newRecorder()
	t = time.Now()
	for i := 0; i < spanRuns; i++ {
		rec.child(i, 0, "noop", func() {})
	}
	out["trace.span_cost_ns"] = float64(time.Since(t).Nanoseconds()) / spanRuns

	var rtts []float64
	for i := 0; i < 200; i++ {
		var s sample
		t = time.Now()
		hc.get(0, "/healthz", false, &s)
		rtts = append(rtts, ms(time.Since(t)))
		if !s.ok() {
			return nil, fmt.Errorf("/healthz: status %d %s", s.status, s.err)
		}
	}
	out["client.rtt_p50_ms"] = percentile(rtts, 50)
	return out, nil
}
