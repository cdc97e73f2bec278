package server

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// prefetcher is the speculative half of the viewport pipeline: every served
// heatmap tile predicts where the client pans or zooms next — the adjacent
// windows at the same pyramid level, the parent tile one level up and the
// child tile one level down — and renders those tiles in the background
// into the same LRU, under the same keys, the foreground path serves from.
//
// The discipline that keeps speculation free:
//
//   - workers yield to the foreground: a job takes a render slot only if one
//     is idle right now (Pool.TryRun), else sheds (counted, never retried);
//   - in its slot a job only leads a flight under the tile's key, so a real
//     request for the tile joins it, and a tile already in flight is left
//     to its leader: nothing renders twice, and no request inherits a shed;
//   - tiles rendered speculatively are tracked until a foreground request
//     first serves them (disposition becomes "prefetched") or the LRU evicts
//     them untouched (counted as evicted_unused — the misprediction signal);
//   - a pane whose requests stopped following its predictions speculates
//     nothing at all (paneGate).
type prefetcher struct {
	s       *Server
	jobs    chan tileParams
	wg      sync.WaitGroup
	workers int
	closeMu sync.Mutex
	closed  bool

	gates []paneGate // by pane index

	// pending tracks cache keys populated by speculation and not yet served
	// to any foreground request.
	mu      sync.Mutex
	pending map[string]struct{}

	enqueued      atomic.Int64
	withheld      atomic.Int64
	dropped       atomic.Int64
	rendered      atomic.Int64
	coalesced     atomic.Int64
	skippedCached atomic.Int64
	skippedStale  atomic.Int64
	shed          atomic.Int64
	served        atomic.Int64
	evictedUnused atomic.Int64

	hook func() // nil but in tests: runs in a speculation's flight before its render
}

// prefetchQueuePerWorker sizes the speculative tile queue: a served tile
// predicts at most four neighbours, so sixteen slots a worker hold a few
// viewports' worth and anything older is not worth rendering.
const prefetchQueuePerWorker = 16

// Speculation pays on a correlated walk (overview → zoom → detail) and is
// pure cost on an uncorrelated one (search → jump-to-gene). The gate tells
// the two apart by the one thing the daemon sees: whether requests follow
// its predictions.
const (
	gateRecord    = 64      // predictions remembered per pane, rendered or not
	gateWeight    = 1.0 / 8 // EWMA weight of the newest foreground tile
	gateThreshold = 0.25    // a pane speculates while its follow share is at or above this
)

// paneGate is one pane's ring of recent predictions and the EWMA of "this
// foreground tile was one of them", its follow share. The share starts at
// 1, so a fresh daemon speculates; eleven unpredicted tiles in a row close
// the gate. A closed gate still records predictions, so a walk that turns
// correlated again re-opens it within three followed tiles.
type paneGate struct {
	mu     sync.Mutex
	recent [gateRecord]tileParams // zero entries match no request (w >= 1)
	next   int
	follow float64
}

// admit scores the foreground tile p, records its predictions and reports
// whether the pane may speculate them.
func (g *paneGate) admit(p tileParams, preds []tileParams) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	followed := 0.0
	if slices.Contains(g.recent[:], p) {
		followed = 1
	}
	g.follow += gateWeight * (followed - g.follow)
	for _, q := range preds {
		g.recent[g.next] = q
		g.next = (g.next + 1) % gateRecord
	}
	return g.follow >= gateThreshold
}

func (g *paneGate) share() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.follow
}

// newPrefetcher starts the worker set and hooks cache eviction. Call before
// the server sees traffic (New does).
func newPrefetcher(s *Server, workers, queue int) *prefetcher {
	pf := &prefetcher{
		s:       s,
		jobs:    make(chan tileParams, queue),
		workers: workers,
		gates:   make([]paneGate, s.NumPanes()),
		pending: make(map[string]struct{}),
	}
	for i := range pf.gates {
		pf.gates[i].follow = 1
	}
	s.cache.OnEvict(pf.noteEvicted)
	for i := 0; i < workers; i++ {
		pf.wg.Add(1)
		go pf.worker()
	}
	return pf
}

// speculate predicts the neighbours of a just-served tile and enqueues them
// if the pane's gate admits them. nRows is the pane's display row count,
// levels its pyramid depth. Non-blocking: a full queue drops predictions
// rather than delaying the caller.
func (pf *prefetcher) speculate(p tileParams, nRows, levels int) {
	span := p.to - p.from
	if span <= 0 || nRows <= 0 {
		return
	}
	type window struct{ from, to int }
	cands := make([]window, 0, 4)
	// Pan: the next and previous windows, truncated at the pane edges
	// exactly like a client walking one full window per step would request
	// them.
	if p.to < nRows {
		cands = append(cands, window{p.to, min(p.to+span, nRows)})
	}
	if p.from > 0 {
		cands = append(cands, window{max(0, p.from-span), p.from})
	}
	// Zoom out: the parent window — double the span, same center.
	if 2*span <= nRows {
		center := (p.from + p.to) / 2
		from := max(0, center-span)
		cands = append(cands, window{from, min(nRows, from+2*span)})
	}
	// Zoom in: the child window — the center half.
	if span >= 2 {
		from := p.from + span/4
		cands = append(cands, window{from, min(nRows, from+span/2)})
	}
	preds := make([]tileParams, 0, 4)
	for _, c := range cands {
		// A tree= tile spans the pane, and the handler refuses one for any
		// other window: such a tile has no neighbour a client can ask for.
		if c.to <= c.from || (c.from == p.from && c.to == p.to) || p.treeW > 0 {
			continue
		}
		q := p
		q.from, q.to = c.from, c.to
		// Each candidate resolves its own auto level, so the predicted
		// cache key is exactly what a future auto-level request for that
		// window will form — including edge-truncated windows, whose
		// shorter span resolves a finer level than the tile they neighbour.
		q.level = autoLevel(c.to-c.from, p.h, levels)
		preds = append(preds, q)
	}
	if !pf.gates[p.dsIndex].admit(p, preds) {
		pf.withheld.Add(int64(len(preds)))
		return
	}
	for _, q := range preds {
		pf.enqueue(q)
	}
}

func (pf *prefetcher) enqueue(q tileParams) {
	if _, ok := pf.s.cache.Get(q.key()); ok {
		pf.skippedCached.Add(1)
		return
	}
	pf.closeMu.Lock()
	if pf.closed {
		pf.closeMu.Unlock()
		return
	}
	select {
	case pf.jobs <- q:
		pf.enqueued.Add(1)
	default:
		pf.dropped.Add(1)
	}
	pf.closeMu.Unlock()
}

func (pf *prefetcher) worker() {
	defer pf.wg.Done()
	for q := range pf.jobs {
		pf.run(q)
	}
}

// run renders one speculative tile, or declines to: already cached,
// already in flight, or no render slot idle.
func (pf *prefetcher) run(q tileParams) {
	key := q.key()
	if _, ok := pf.s.cache.Get(key); ok {
		pf.skippedCached.Add(1)
		return
	}
	cd, err := pf.s.trees.get(context.Background(), q.dsIndex)
	if err != nil {
		// The pane has no tree (its clustering failed): nothing to draw from.
		pf.skippedStale.Add(1)
		return
	}
	// Mark before rendering so a foreground hit arriving right after the
	// cache fill already reads "prefetched".
	pf.mark(key)
	rendered := false
	_, err = pf.s.pool.TryRun(func() (any, error) {
		_, err, led := pf.s.flights.lead(key, func(context.Context) (any, error) {
			if v, ok := pf.s.cache.Get(key); ok { // joiners get the value too
				pf.skippedCached.Add(1)
				return v, nil
			}
			if pf.hook != nil {
				pf.hook()
			}
			png, err := pf.s.rasterizeTile(cd, q)
			if rendered = err == nil; rendered {
				pf.s.cache.Put(key, png, wireCost(png))
				pf.rendered.Add(1)
			}
			return png, err
		})
		if !led { // a real request is rendering this tile: its flight serves it
			pf.coalesced.Add(1)
		}
		return nil, err
	})
	if errors.Is(err, ErrSaturated) {
		pf.shed.Add(1)
	}
	if !rendered {
		pf.take(key)
	}
}

func (pf *prefetcher) mark(key string) {
	pf.mu.Lock()
	pf.pending[key] = struct{}{}
	pf.mu.Unlock()
}

// take removes key's pending mark and reports whether there was one.
func (pf *prefetcher) take(key string) bool {
	pf.mu.Lock()
	_, ok := pf.pending[key]
	delete(pf.pending, key)
	pf.mu.Unlock()
	return ok
}

// claim consumes a pending mark: the foreground request serving key was
// answered by a speculative render. Returns whether the mark existed.
func (pf *prefetcher) claim(key string) bool {
	ok := pf.take(key)
	if ok {
		pf.served.Add(1)
	}
	return ok
}

// noteEvicted is the cache's eviction observer: a speculative tile evicted
// before any foreground touch was a wasted prediction.
func (pf *prefetcher) noteEvicted(key string) {
	if strings.HasPrefix(key, "tile\x1f") && pf.take(key) {
		pf.evictedUnused.Add(1)
	}
}

// snapshot assembles the prefetch section of /api/stats.
func (pf *prefetcher) snapshot() PrefetchInfo {
	pf.mu.Lock()
	pending := len(pf.pending)
	pf.mu.Unlock()
	follow := make([]float64, len(pf.gates))
	for i := range pf.gates {
		follow[i] = pf.gates[i].share()
	}
	return PrefetchInfo{
		Workers:       pf.workers,
		Enqueued:      pf.enqueued.Load(),
		Withheld:      pf.withheld.Load(),
		Dropped:       pf.dropped.Load(),
		Rendered:      pf.rendered.Load(),
		Coalesced:     pf.coalesced.Load(),
		SkippedCached: pf.skippedCached.Load(),
		SkippedStale:  pf.skippedStale.Load(),
		Shed:          pf.shed.Load(),
		Served:        pf.served.Load(),
		EvictedUnused: pf.evictedUnused.Load(),
		Pending:       pending,
		FollowShare:   follow,
	}
}

// Close drains the queue and stops the workers.
func (pf *prefetcher) Close() {
	pf.closeMu.Lock()
	if !pf.closed {
		pf.closed = true
		close(pf.jobs)
	}
	pf.closeMu.Unlock()
	pf.wg.Wait()
}
