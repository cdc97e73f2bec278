package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"forestview/internal/cluster"
	"forestview/internal/core"
	"forestview/internal/microarray"
)

// treeCache is the daemon's per-dataset clustered-tree store: one slot per
// heatmap pane, holding either a tree supplied pre-clustered at startup or
// one built lazily — once — on the first /api/heatmap touch. It is the
// reason concurrent tiles of a cold dataset recluster once per dataset, not
// once per request:
//
//   - builds are singleflight-coalesced per pane: one leader runs the
//     clustering kernel with its request context, followers wait on the
//     flight. If the leader's client hangs up mid-build (the kernel polls
//     ctx), a live follower retries as the new leader rather than failing.
//   - entries are invalidated by dataset identity: ReplaceDataset bumps the
//     pane's generation, detaches any in-flight build (its result is served
//     to the waiters that asked for the old data, but never installed), and
//     the next request builds the new dataset's tree. Generations ride into
//     the tile cache keys, so stale PNG tiles can never be served against a
//     replaced dataset.
//   - trees live outside the byte-budgeted LRU: a burst of hot tiles must
//     not evict the dendrograms they are rendered from.
//   - at most GOMAXPROCS builds run at once, whoever asked (warm, or every
//     pane of a cold daemon touched together): a build holds an n²/2
//     distance matrix — 144 MB for 6,000 rows — while it agglomerates on one
//     core, so more builds than cores add peak heap and no speed. A leader
//     waits for its slot under its own context; if that dies first the
//     flight goes to a live follower, as when a build is cancelled.
//
// Counters are surfaced under tree_cache in /api/stats.
type treeCache struct {
	mu      sync.Mutex
	entries []*treeEntry
	opt     core.ClusterOptions
	slots   chan struct{} // one token per running build; cap GOMAXPROCS

	builds        atomic.Int64 // kernel builds that completed
	hits          atomic.Int64 // requests served an already-built tree
	coalesced     atomic.Int64 // requests that joined another's build
	invalidations atomic.Int64
	failures      atomic.Int64 // builds that failed for non-context reasons
	buildNS       atomic.Int64 // summed successful build wall time
}

// treeEntry is one pane slot.
type treeEntry struct {
	gen    uint64                 // bumped by ReplaceDataset; part of tile keys
	raw    *microarray.Dataset    // build source; nil for purely pre-clustered panes
	built  *core.ClusteredDataset // ready tree, nil until built (or after invalidation)
	flight *treeFlight
}

// treeFlight is one in-progress build; followers wait on done.
type treeFlight struct {
	done chan struct{}
	gen  uint64
	cd   *core.ClusteredDataset
	err  error
}

func newTreeCache(opt core.ClusterOptions) *treeCache {
	return &treeCache{opt: opt, slots: make(chan struct{}, runtime.GOMAXPROCS(0))}
}

// addPre appends a pre-clustered pane (generation 0, never rebuilt unless
// replaced) and returns its index.
func (tc *treeCache) addPre(cd *core.ClusteredDataset) int {
	tc.entries = append(tc.entries, &treeEntry{built: cd})
	return len(tc.entries) - 1
}

// addRaw appends a lazily-clustered pane and returns its index.
func (tc *treeCache) addRaw(ds *microarray.Dataset) int {
	tc.entries = append(tc.entries, &treeEntry{raw: ds})
	return len(tc.entries) - 1
}

// addEmpty appends an unresolvable placeholder slot, preserving the index
// positions of nil config entries.
func (tc *treeCache) addEmpty() int {
	tc.entries = append(tc.entries, &treeEntry{})
	return len(tc.entries) - 1
}

var errNoPane = errors.New("server: pane has no dataset")

// get returns the pane's clustered tree and its generation, building it on
// first touch. ctx cancellation unblocks the caller immediately; a leader
// whose build dies of its own cancellation hands the flight over to any
// live follower.
func (tc *treeCache) get(ctx context.Context, idx int) (*core.ClusteredDataset, uint64, error) {
	for {
		tc.mu.Lock()
		if idx < 0 || idx >= len(tc.entries) {
			tc.mu.Unlock()
			return nil, 0, fmt.Errorf("server: pane %d out of range", idx)
		}
		e := tc.entries[idx]
		if e.built != nil {
			cd, gen := e.built, e.gen
			tc.mu.Unlock()
			tc.hits.Add(1)
			return cd, gen, nil
		}
		if e.raw == nil {
			tc.mu.Unlock()
			return nil, 0, errNoPane
		}
		if f := e.flight; f != nil {
			tc.mu.Unlock()
			tc.coalesced.Add(1)
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, 0, ctx.Err()
			}
			if f.err == nil {
				return f.cd, f.gen, nil
			}
			if isContextErr(f.err) {
				// The leader's client hung up mid-build. If we are still
				// live, loop and become the new leader.
				if ctx.Err() != nil {
					return nil, 0, ctx.Err()
				}
				continue
			}
			return nil, 0, f.err
		}
		// Become the leader.
		f := &treeFlight{done: make(chan struct{}), gen: e.gen}
		e.flight = f
		raw := e.raw
		tc.mu.Unlock()

		cd, err := tc.build(ctx, raw)
		f.cd, f.err = cd, err

		tc.mu.Lock()
		if e.flight == f {
			e.flight = nil
			if err == nil && e.gen == f.gen {
				// Install unless ReplaceDataset swapped the pane mid-build;
				// waiters still get the tree of the dataset they asked for.
				e.built = cd
			}
		}
		tc.mu.Unlock()
		close(f.done)
		return cd, f.gen, err
	}
}

// build clusters raw in one of the cache's build slots, waiting for a free
// one for as long as ctx lives.
func (tc *treeCache) build(ctx context.Context, raw *microarray.Dataset) (*core.ClusteredDataset, error) {
	select {
	case tc.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-tc.slots }()
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
}

// generation returns the pane's current generation without forcing a
// build — the prefetcher's staleness check before it spends a speculative
// render.
func (tc *treeCache) generation(idx int) (uint64, bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if idx < 0 || idx >= len(tc.entries) {
		return 0, false
	}
	return tc.entries[idx].gen, true
}

// rows returns the pane's display row count without forcing a build — the
// cheap half of request validation.
func (tc *treeCache) rows(idx int) (int, bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if idx < 0 || idx >= len(tc.entries) {
		return 0, false
	}
	switch e := tc.entries[idx]; {
	case e.built != nil:
		return len(e.built.DisplayOrder), true
	case e.raw != nil:
		return e.raw.NumGenes(), true
	}
	return 0, false
}

// resolvable reports whether the pane can serve at all (it has a tree or a
// dataset to build one from).
func (tc *treeCache) resolvable(idx int) bool {
	_, ok := tc.rows(idx)
	return ok
}

// replace swaps the pane's dataset: the generation bumps, the cached tree
// drops, and any in-flight build is detached so its result is never
// installed over the new data.
func (tc *treeCache) replace(idx int, ds *microarray.Dataset) {
	tc.mu.Lock()
	e := tc.entries[idx]
	e.gen++
	e.raw = ds
	e.built = nil
	e.flight = nil
	tc.mu.Unlock()
	tc.invalidations.Add(1)
}

// warm builds every buildable pane concurrently (startup pre-clustering for
// daemons that prefer paying at boot instead of on first request).
func (tc *treeCache) warm(ctx context.Context) error {
	tc.mu.Lock()
	n := len(tc.entries)
	tc.mu.Unlock()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if !tc.resolvable(i) {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = tc.get(ctx, i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// snapshot assembles the /api/stats view.
func (tc *treeCache) snapshot() TreeCacheInfo {
	tc.mu.Lock()
	info := TreeCacheInfo{Panes: len(tc.entries), Building: len(tc.slots)}
	for _, e := range tc.entries {
		if e.built != nil {
			info.Built++
		}
	}
	tc.mu.Unlock()
	info.Builds = tc.builds.Load()
	info.Hits = tc.hits.Load()
	info.Coalesced = tc.coalesced.Load()
	info.Invalidations = tc.invalidations.Load()
	info.Failures = tc.failures.Load()
	if info.Builds > 0 {
		info.MeanBuildMS = float64(tc.buildNS.Load()) / float64(info.Builds) / 1e6
	}
	return info
}

// treeClusterOptions maps the server config onto core.ClusterOptions.
func treeClusterOptions(metric cluster.Metric, linkage cluster.Linkage, optimize, clusterArrays bool) core.ClusterOptions {
	return core.ClusterOptions{Metric: metric, Linkage: linkage, OptimizeOrder: optimize, ClusterArrays: clusterArrays}
}
