package server

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"forestview/internal/core"
	"forestview/internal/microarray"
)

// treeCache is the daemon's clustered-tree store: a pane list fixed at
// startup, each pane holding either a tree supplied pre-clustered or one
// built lazily — once — on the first /api/heatmap touch. A pane never
// changes after New, so a tree once built is final:
//
//   - a build is one more coalesced computation (coalesce, keyed by pane
//     index): one leader runs the clustering kernel under the flight's
//     context, followers join its flight, and the build stops (the kernel
//     polls ctx) only once every request waiting for it has hung up.
//   - trees live in the pane, outside the byte-budgeted LRU: a burst of hot
//     tiles must not evict the dendrograms they are rendered from.
//   - at most GOMAXPROCS builds run at once, whoever asked (warm, or every
//     pane of a cold daemon touched together): a build holds an n²
//     distance matrix — 288 MB for 6,000 rows — while it agglomerates on one
//     core, and hands it to the next build when it ends, so panes of one
//     size hold at most GOMAXPROCS matrices between them; more builds than
//     cores would add peak heap and no speed. A build is a Run on the
//     cache's own Pool, waiting under the flight's context.
//
// Counters are surfaced under tree_cache in /api/stats.
type treeCache struct {
	panes   []*pane
	opt     core.ClusterOptions
	pool    *Pool // GOMAXPROCS slots; one waiter a pane, so it never sheds
	flights flightGroup
	stat    endpointStats // hits on a built tree, joins of another's build

	builds   atomic.Int64 // kernel builds that completed
	failures atomic.Int64 // builds that failed for non-context reasons
	buildNS  atomic.Int64 // summed successful build wall time
}

// pane is one heatmap pane, and the place its tree is kept.
type pane struct {
	raw  *microarray.Dataset                   // build source, a matrix without a gene table; nil for a pre-clustered pane
	rows int                                   // display rows, known before any build
	tree atomic.Pointer[core.ClusteredDataset] // nil until built
}

// newTreeCache lists the pre-clustered panes, then the lazily clustered
// ones; a pane's position is its index. A raw pane keeps what a tree build
// and a tile read, its name, column labels and rows, the caller's slices
// with no value copied. Its gene table (Genes, the ID index, the weights and
// the string arena they point into) stays with the caller, to be collected
// when the caller drops it.
func newTreeCache(opt core.ClusterOptions, pre []*core.ClusteredDataset, raw []*microarray.Dataset) *treeCache {
	tc := &treeCache{opt: opt}
	for _, cd := range pre {
		p := &pane{rows: len(cd.DisplayOrder)}
		p.tree.Store(cd)
		tc.panes = append(tc.panes, p)
	}
	for _, ds := range raw {
		m := &microarray.Dataset{Name: ds.Name, Experiments: ds.Experiments, Data: ds.Data}
		tc.panes = append(tc.panes, &pane{raw: m, rows: m.NumGenes()})
	}
	tc.pool = NewPool(runtime.GOMAXPROCS(0), len(tc.panes))
	return tc
}

// get returns the pane's clustered tree, building it on first touch. A
// follower whose ctx ends leaves at once; the leader builds on for as long
// as anyone waits.
func (tc *treeCache) get(ctx context.Context, idx int) (*core.ClusteredDataset, error) {
	p := tc.panes[idx]
	load := func() (*core.ClusteredDataset, bool) {
		cd := p.tree.Load()
		return cd, cd != nil
	}
	cd, _, err := coalesce(ctx, &tc.flights, &tc.stat, strconv.Itoa(idx), load, p.tree.Store,
		func(ctx context.Context) (*core.ClusteredDataset, error) { return tc.build(ctx, p.raw) })
	return cd, err
}

// build clusters raw in one of the cache's build slots, waiting for a free
// one for as long as ctx lives.
func (tc *treeCache) build(ctx context.Context, raw *microarray.Dataset) (*core.ClusteredDataset, error) {
	v, err := tc.pool.Run(ctx, func() (any, error) {
		t0 := time.Now()
		cd, err := core.ClusterCtx(ctx, raw, tc.opt)
		switch {
		case err == nil:
			tc.builds.Add(1)
			tc.buildNS.Add(time.Since(t0).Nanoseconds())
		case !isContextErr(err):
			tc.failures.Add(1)
		}
		return cd, err
	})
	cd, _ := v.(*core.ClusteredDataset)
	return cd, err
}

// warm builds every pane concurrently (startup pre-clustering for daemons
// that prefer paying at boot instead of on first request).
func (tc *treeCache) warm(ctx context.Context) error {
	errs := make([]error, len(tc.panes))
	var wg sync.WaitGroup
	for i := range tc.panes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = tc.get(ctx, i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// snapshot assembles the /api/stats view.
func (tc *treeCache) snapshot() TreeCacheInfo {
	info := TreeCacheInfo{
		Panes:     len(tc.panes),
		Building:  tc.pool.Running(),
		Builds:    tc.builds.Load(),
		Hits:      tc.stat.cacheHits.Load(),
		Coalesced: tc.stat.coalesced.Load(),
		Failures:  tc.failures.Load(),
	}
	for _, p := range tc.panes {
		if p.tree.Load() != nil {
			info.Built++
		}
	}
	if info.Builds > 0 {
		info.MeanBuildMS = float64(tc.buildNS.Load()) / float64(info.Builds) / 1e6
	}
	return info
}
