package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image/color"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"forestview/internal/microarray"
	"forestview/internal/render"
	"forestview/internal/spell"
)

// prefetchStats fetches the prefetch section of /api/stats.
func prefetchStats(t *testing.T, s *Server) *PrefetchInfo {
	t.Helper()
	rec := get(t, s, "/api/stats")
	var snap StatsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Prefetch
}

// TestHeatmapLevelZeroByteIdentity is the pyramid's regression oracle at the
// serving layer: a default request (auto level resolving to 0) and an
// explicit level=0 request must produce byte-for-byte the PNG the pre-pyramid
// path produced — replicated here from the raw display rows.
func TestHeatmapLevelZeroByteIdentity(t *testing.T) {
	s, _ := rawFixture(t, 1)
	cd, err := s.trees.get(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	n := len(cd.DisplayOrder)

	// The pre-pyramid rendering path, verbatim. h exceeds half the row count,
	// so auto-level resolves to 0 and all three requests hit the raw path.
	const w, h = 96, 128
	c := render.NewCanvas(w, h, color.RGBA{A: 255})
	render.RenderHeatmap(c, render.Rect{X: 0, Y: 0, W: w, H: h},
		cd.RowsInDisplayRange(0, n), render.HeatmapOptions{
			ColorMap: render.GreenBlackRed, Limit: 2, CellBorder: true,
		})
	var want bytes.Buffer
	if err := c.EncodePNG(&want); err != nil {
		t.Fatal(err)
	}

	for _, u := range []string{
		fmt.Sprintf("/api/heatmap?dataset=0&w=%d&h=%d", w, h),
		fmt.Sprintf("/api/heatmap?dataset=0&w=%d&h=%d&level=0", w, h),
		fmt.Sprintf("/api/heatmap?dataset=0&w=%d&h=%d&level=auto", w, h),
	} {
		rec := get(t, s, u)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", u, rec.Code, rec.Body.String())
		}
		if lv := rec.Header().Get("X-Forestview-Level"); lv != "0" {
			t.Fatalf("%s resolved level %q, want 0 (span %d < h %d)", u, lv, n, h)
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("%s differs from the pre-pyramid render (%d vs %d bytes)",
				u, rec.Body.Len(), want.Len())
		}
	}
}

// TestHeatmapAutoLevel: a zoomed-out request (row span well past the pixel
// height) auto-selects a coarser pyramid level, disclosed in the
// X-Forestview-Level header, and still produces a valid PNG distinct from
// level 0 of the same geometry.
func TestHeatmapAutoLevel(t *testing.T) {
	s, _ := rawFixture(t, 1) // 220 rows: pyramid levels {0, 1}
	// span 220 >> 1 = 110 >= h=64, so auto resolves to level 1.
	auto := get(t, s, "/api/heatmap?dataset=0&w=64&h=64")
	if auto.Code != http.StatusOK || !bytes.HasPrefix(auto.Body.Bytes(), pngMagic) {
		t.Fatalf("auto tile = %d", auto.Code)
	}
	if lv := auto.Header().Get("X-Forestview-Level"); lv != "1" {
		t.Fatalf("auto level = %q, want 1", lv)
	}
	// The explicit twin shares the cache entry (auto resolves before keying).
	twin := get(t, s, "/api/heatmap?dataset=0&w=64&h=64&level=1")
	if twin.Header().Get(cacheHeader) != dispHit {
		t.Fatalf("explicit level=1 after auto: disposition %q, want %q",
			twin.Header().Get(cacheHeader), dispHit)
	}
	if !bytes.Equal(auto.Body.Bytes(), twin.Body.Bytes()) {
		t.Fatal("auto and explicit level=1 tiles differ")
	}
	// Forcing level 0 renders from the raw rows: a different image.
	l0 := get(t, s, "/api/heatmap?dataset=0&w=64&h=64&level=0")
	if l0.Code != http.StatusOK {
		t.Fatalf("level=0 tile = %d", l0.Code)
	}
	if bytes.Equal(auto.Body.Bytes(), l0.Body.Bytes()) {
		t.Fatal("level 1 tile identical to level 0 tile")
	}
}

// TestHeatmapLevelValidation extends the cheap-validation sweep to the
// pyramid and array-tree parameters: every rejection must come from the row
// count alone, before any tree builds.
func TestHeatmapLevelValidation(t *testing.T) {
	s, _ := rawFixture(t, 1) // 220 rows: valid levels are 0 and 1
	cases := []struct {
		name string
		url  string
		want int
	}{
		{"level not a number", "/api/heatmap?dataset=0&level=high", http.StatusBadRequest},
		{"negative level", "/api/heatmap?dataset=0&level=-1", http.StatusBadRequest},
		{"level past pyramid", "/api/heatmap?dataset=0&level=2", http.StatusBadRequest},
		{"atree not a number", "/api/heatmap?dataset=0&atree=tall", http.StatusBadRequest},
		{"negative atree", "/api/heatmap?dataset=0&atree=-4", http.StatusBadRequest},
		{"atree swallows tile", "/api/heatmap?dataset=0&h=128&atree=128", http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if rec := get(t, s, c.url); rec.Code != c.want {
				t.Errorf("%s = %d, want %d", c.url, rec.Code, c.want)
			}
		})
	}
	if ts := treeStats(t, s); ts.Builds != 0 || ts.Built != 0 {
		t.Fatalf("validation built trees: %+v", ts)
	}
}

// arrayFixture is rawFixture with column clustering on (and optional
// prefetch workers), for the atree and prefetch tests.
func arrayFixture(t *testing.T, prefetchWorkers int) (*Server, []*microarray.Dataset) {
	t.Helper()
	_, dss := rawFixture(t, 1) // reuse the generator; throw away that server
	engine, err := spell.NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Engine:          engine,
		RawDatasets:     dss,
		CacheBytes:      8 << 20,
		RenderWorkers:   2,
		RenderQueue:     64,
		ClusterArrays:   true,
		PrefetchWorkers: prefetchWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, dss
}

// TestHeatmapArrayDendrogramStrip mirrors the tree=W strip test for the
// column dendrogram: atree=H changes the tile and requires ClusterArrays.
func TestHeatmapArrayDendrogramStrip(t *testing.T) {
	s, _ := arrayFixture(t, 0)
	withStrip := get(t, s, "/api/heatmap?dataset=0&w=128&h=256&atree=48")
	if withStrip.Code != http.StatusOK || !bytes.HasPrefix(withStrip.Body.Bytes(), pngMagic) {
		t.Fatalf("atree tile = %d: %s", withStrip.Code, withStrip.Body.String())
	}
	plain := get(t, s, "/api/heatmap?dataset=0&w=128&h=256")
	if plain.Code != http.StatusOK {
		t.Fatalf("plain tile = %d", plain.Code)
	}
	if bytes.Equal(withStrip.Body.Bytes(), plain.Body.Bytes()) {
		t.Fatal("array dendrogram strip did not change the tile")
	}
	// Both strips at once still renders.
	if rec := get(t, s, "/api/heatmap?dataset=0&w=128&h=256&tree=32&atree=48"); rec.Code != http.StatusOK {
		t.Fatalf("tree+atree tile = %d: %s", rec.Code, rec.Body.String())
	}

	// A daemon without ClusterArrays has no array tree to draw: honest 422.
	s2, _ := rawFixture(t, 1)
	if rec := get(t, s2, "/api/heatmap?dataset=0&w=128&h=256&atree=48"); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("atree without ClusterArrays = %d", rec.Code)
	}
}

// TestPrefetchServesNextWindow is the speculative pipeline's end-to-end
// proof: serving one tile renders its pan/zoom neighbours in the
// background, and the follow-up request for the adjacent window is a cache
// hit disclosed as "prefetched", with the stats ledger accounting for every
// enqueued prediction.
func TestPrefetchServesNextWindow(t *testing.T) {
	s, _ := arrayFixture(t, 2)
	first := get(t, s, "/api/heatmap?dataset=0&w=64&h=48&rows=0:50")
	if first.Code != http.StatusOK {
		t.Fatalf("first tile = %d: %s", first.Code, first.Body.String())
	}
	// Predictions for rows 0:50 at level 0: the next window [50,100) and the
	// parent tile at level 1. Wait for the background workers to drain them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		pi := prefetchStats(t, s)
		if pi == nil {
			t.Fatal("stats missing prefetch section with workers enabled")
		}
		if pi.Rendered+pi.Coalesced+pi.SkippedCached+pi.SkippedStale+pi.Shed >= pi.Enqueued && pi.Enqueued >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prefetch queue never drained: %+v", *pi)
		}
		time.Sleep(5 * time.Millisecond)
	}

	next := get(t, s, "/api/heatmap?dataset=0&w=64&h=48&rows=50:100")
	if next.Code != http.StatusOK {
		t.Fatalf("next-window tile = %d", next.Code)
	}
	if disp := next.Header().Get(cacheHeader); disp != dispPrefetched {
		t.Fatalf("next-window disposition = %q, want %q", disp, dispPrefetched)
	}
	pi := prefetchStats(t, s)
	if pi.Served != 1 {
		t.Fatalf("served = %d, want 1: %+v", pi.Served, *pi)
	}
	// A second identical request is an ordinary hit: "prefetched" discloses
	// only the first foreground touch of a speculative render.
	again := get(t, s, "/api/heatmap?dataset=0&w=64&h=48&rows=50:100")
	if disp := again.Header().Get(cacheHeader); disp != dispHit {
		t.Fatalf("second touch disposition = %q, want %q", disp, dispHit)
	}
}

// TestPrefetchYieldsToForeground: speculation must never compete with real
// requests for render slots. With every slot held — whether or not anyone
// waits — a prefetch job sheds at once instead of rendering; with the queue
// full, enqueue-time admission drops instead of blocking.
func TestPrefetchYieldsToForeground(t *testing.T) {
	s, _ := rawFixture(t, 1) // PrefetchWorkers 0: we drive the prefetcher by hand
	if _, err := s.trees.get(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	pf := newPrefetcher(s, 0, 4) // no workers: run() is called directly
	t.Cleanup(pf.Close)

	// rawFixture's pool has 2 slots: hold both, with nobody waiting.
	release := holdSlots(t, s.pool, 2)
	q := tileParams{dsIndex: 0, from: 0, to: 50, w: 32, h: 24, cmap: render.GreenBlackRed, limit: 2}
	ran := make(chan struct{})
	go func() { pf.run(q); close(ran) }()
	select {
	case <-ran:
	case <-time.After(100 * time.Millisecond):
		t.Fatal("speculation waited for a busy render slot instead of shedding")
	}
	if pi := pf.snapshot(); pi.Shed != 1 || pi.Rendered != 0 {
		t.Fatalf("run against a busy pool: %+v (want shed=1, rendered=0)", pi)
	}
	if _, ok := s.cache.Get(q.key()); ok {
		t.Fatal("shed speculation still rendered into the cache")
	}

	// A foreground render waiting for a slot as well: still shed.
	waiter := make(chan struct{})
	go func() {
		_, _ = s.pool.Run(context.Background(), func() (any, error) { return nil, nil })
		close(waiter)
	}()
	waitQueued := time.Now().Add(2 * time.Second)
	for s.pool.waiting.Load() == 0 {
		if time.Now().After(waitQueued) {
			t.Fatal("pool queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	pf.run(q)
	if pi := pf.snapshot(); pi.Shed != 2 || pi.Rendered != 0 {
		t.Fatalf("run against a backed-up pool: %+v (want shed=2, rendered=0)", pi)
	}
	if _, ok := s.cache.Get(q.key()); ok {
		t.Fatal("shed speculation still rendered into the cache")
	}
	release()
	<-waiter

	// With the pool idle again the same job renders.
	pf.run(q)
	if pi := pf.snapshot(); pi.Rendered != 1 {
		t.Fatalf("run against an idle pool: %+v (want rendered=1)", pi)
	}
	if _, ok := s.cache.Get(q.key()); !ok {
		t.Fatal("rendered speculation missing from the cache")
	}

	// Enqueue-time admission: a full queue drops, never blocks.
	for i := 0; i < 6; i++ {
		c := q
		c.from, c.to = 50+i*10, 60+i*10
		pf.enqueue(c)
	}
	if pi := pf.snapshot(); pi.Dropped != 2 || pi.Enqueued != 4 {
		t.Fatalf("admission over a 4-slot queue: %+v (want enqueued=4, dropped=2)", pi)
	}
}

// TestHeatmapOutlivesShedSpeculation: a speculation that finds no idle
// render slot opens no flight, so no request can inherit its shed; one that
// finds its tile already in flight leaves it to the foreground request,
// which renders the tile.
func TestHeatmapOutlivesShedSpeculation(t *testing.T) {
	s, _ := rawFixture(t, 1)
	if _, err := s.trees.get(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	pf := newPrefetcher(s, 0, 4) // no workers: run() is called directly
	t.Cleanup(pf.Close)
	q := tileParams{dsIndex: 0, from: 0, to: 50, w: 32, h: 24, cmap: render.GreenBlackRed, limit: 2}
	const url = "/api/heatmap?dataset=0&rows=0:50&w=32&h=24&level=0"

	release := holdSlots(t, s.pool, cap(s.pool.slots))
	pf.run(q)
	s.flights.mu.Lock()
	open := len(s.flights.calls)
	s.flights.mu.Unlock()
	if pi := pf.snapshot(); pi.Shed != 1 || open != 0 {
		t.Fatalf("speculation without an idle slot: %+v, %d flights open (want shed=1, none open)", pi, open)
	}

	// The foreground request leads the tile's flight, waiting for a slot.
	answered := make(chan *httptest.ResponseRecorder, 1)
	go func() { answered <- get(t, s, url) }()
	waitWaiters(t, &s.flights, q.key(), 1)
	release()
	// Whether or not the request holds its slot yet, the speculation now
	// finds an idle slot, or the tile in flight, or the tile cached: it
	// renders nothing.
	pf.run(q)
	if rec := <-answered; rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != dispMiss {
		t.Fatalf("foreground request = %d (%s: %q)", rec.Code, cacheHeader, rec.Header().Get(cacheHeader))
	}
	if pi := pf.snapshot(); pi.Rendered != 0 || pi.Coalesced+pi.SkippedCached != 1 {
		t.Fatalf("speculation beside a foreground render: %+v (want rendered=0, coalesced or skipped_cached 1)", pi)
	}
}

// TestRequestJoinsSpeculation: a request for a tile a speculation is
// rendering joins the speculation's flight and gets the tile. The render
// only outlasts the request's way to the flight on most tries, so each try
// takes a fresh tile, and every answer must be the tile.
func TestRequestJoinsSpeculation(t *testing.T) {
	s, _ := rawFixture(t, 1)
	if _, err := s.trees.get(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	pf := newPrefetcher(s, 0, 4)
	t.Cleanup(pf.Close)
	for try := 0; try < 20; try++ {
		// The largest tile, so the render is slow.
		q := tileParams{dsIndex: 0, from: try, to: try + 200, w: 2048, h: 2048, cmap: render.GreenBlackRed, limit: 2}
		done := make(chan struct{})
		go func() { pf.run(q); close(done) }()
		inFlight := func() bool {
			s.flights.mu.Lock()
			defer s.flights.mu.Unlock()
			_, ok := s.flights.calls[q.key()]
			return ok
		}
		for wait := true; wait && !inFlight(); {
			select {
			case <-done:
				wait = false
			case <-time.After(50 * time.Microsecond):
			}
		}
		rec := get(t, s, fmt.Sprintf("/api/heatmap?dataset=0&rows=%d:%d&w=2048&h=2048&level=0", q.from, q.to))
		<-done
		if rec.Code != http.StatusOK || !bytes.HasPrefix(rec.Body.Bytes(), pngMagic) {
			t.Fatalf("request = %d (%s: %q), %d body bytes; want the tile", rec.Code, cacheHeader, rec.Header().Get(cacheHeader), rec.Body.Len())
		}
		if rec.Header().Get(cacheHeader) == dispCoalesced {
			return
		}
	}
	t.Fatal("no request joined a speculation's flight in 20 tries")
}

// TestPrefetchEvictedUnusedAccounting: a speculative tile the LRU evicts
// before any foreground touch is counted as a wasted prediction, and its
// pending mark is released.
func TestPrefetchEvictedUnusedAccounting(t *testing.T) {
	s, _ := rawFixture(t, 1)
	pf := newPrefetcher(s, 0, 4)
	t.Cleanup(pf.Close)

	key := tileParams{dsIndex: 0, from: 0, to: 50, w: 32, h: 24, cmap: render.GreenBlackRed, limit: 2}.key()
	pf.mark(key)
	// The 8 MiB budget splits across 16 shards, so ~400 KiB entries pressure
	// a shard after two tenants; flood filler keys until some land in the
	// speculative tile's shard and push it out.
	s.cache.Put(key, []byte("png"), 400<<10)
	for i := 0; i < 64 && pf.snapshot().EvictedUnused == 0; i++ {
		s.cache.Put(fmt.Sprintf("tile\x1ffill%d", i), []byte("png2"), 400<<10)
	}
	if pi := pf.snapshot(); pi.EvictedUnused != 1 || pi.Pending != 0 {
		t.Fatalf("after eviction pressure: %+v (want evicted_unused=1, pending=0)", pi)
	}
	// A claim after eviction finds nothing: the tile is gone either way.
	if pf.claim(key) {
		t.Fatal("claimed a key the cache already evicted")
	}
}

// gateWalk drives /api/heatmap over a two-pane daemon whose prefetcher has
// no workers: tile runs every queued prediction before it returns, so each
// request sees exactly the speculation its predecessors were admitted.
type gateWalk struct {
	t   *testing.T
	s   *Server
	pf  *prefetcher
	rng *rand.Rand
}

const gateWalkPx = 24

func newGateWalk(t *testing.T) *gateWalk {
	s, _ := rawFixture(t, 2)
	pf := newPrefetcher(s, 0, 64)
	s.prefetch = pf
	t.Cleanup(pf.Close)
	return &gateWalk{t: t, s: s, pf: pf, rng: rand.New(rand.NewSource(25))}
}

// tile requests rows [from, to) of pane and returns its disposition.
func (g *gateWalk) tile(pane, from, to int) string {
	g.t.Helper()
	rec := get(g.t, g.s, fmt.Sprintf("/api/heatmap?dataset=%d&rows=%d:%d&w=%d&h=%d", pane, from, to, gateWalkPx, gateWalkPx))
	if rec.Code != http.StatusOK {
		g.t.Fatalf("rows %d:%d of pane %d = %d: %s", from, to, pane, rec.Code, rec.Body.String())
	}
	for len(g.pf.jobs) > 0 {
		g.pf.run(<-g.pf.jobs)
	}
	return rec.Header().Get(cacheHeader)
}

// jump requests a random window of pane, as a search result's
// jump-to-gene does: unrelated to the tile before it.
func (g *gateWalk) jump(pane int) {
	span := 8 + g.rng.Intn(150)
	from := g.rng.Intn(220 - span)
	g.tile(pane, from, from+span)
}

func (g *gateWalk) open(pane int) bool {
	return g.pf.snapshot().FollowShare[pane] >= gateThreshold
}

// closeGate jumps around pane until its gate closes, which takes eleven
// unpredicted tiles from a share of 1.
func (g *gateWalk) closeGate(pane int) {
	g.t.Helper()
	for i := 0; g.open(pane); i++ {
		if i == 16 {
			g.t.Fatalf("16 random windows left pane %d's gate open: %+v", pane, g.pf.snapshot())
		}
		g.jump(pane)
	}
}

// TestPrefetchGate walks the two kinds of the Nusrat–Gehlenborg task
// taxonomy through the prefetcher's gate: a correlated walk keeps it open,
// an uncorrelated one closes it, a walk that turns correlated re-opens it,
// and one pane's traffic never decides another's, concurrently too.
func TestPrefetchGate(t *testing.T) {
	const rows = 220 // rawFixture's panes
	cases := []struct {
		name string
		walk func(t *testing.T, g *gateWalk)
	}{
		{"overview→zoom→detail stays open", func(t *testing.T, g *gateWalk) {
			g.tile(0, 0, rows) // the overview nothing predicted
			// Zoom to the centre half twice, then pan down to the edge:
			// every step is one of its predecessor's predictions.
			for _, w := range [][2]int{{55, 165}, {82, 137}, {137, 192}, {192, 220}} {
				if disp := g.tile(0, w[0], w[1]); disp != dispPrefetched {
					t.Fatalf("rows %d:%d = %q, want %q: %+v", w[0], w[1], disp, dispPrefetched, g.pf.snapshot())
				}
				if !g.open(0) {
					t.Fatalf("correlated walk closed the gate at rows %d:%d: %+v", w[0], w[1], g.pf.snapshot())
				}
			}
			if pi := g.pf.snapshot(); pi.Withheld != 0 || pi.Served != 4 {
				t.Fatalf("correlated walk: %+v (want withheld=0, served=4)", pi)
			}
		}},
		{"search→jump-to-gene closes", func(t *testing.T, g *gateWalk) {
			g.closeGate(0)
			before := g.pf.snapshot()
			for i := 0; i < 8; i++ {
				g.jump(0)
			}
			after := g.pf.snapshot()
			if after.Enqueued != before.Enqueued || after.Withheld <= before.Withheld || g.open(0) {
				t.Fatalf("closed gate: %+v then %+v (want enqueued flat, withheld growing)", before, after)
			}
		}},
		{"jump then pan re-opens within 3 steps", func(t *testing.T, g *gateWalk) {
			g.closeGate(0)
			g.tile(0, 20, 40) // the last jump
			before := g.pf.snapshot().Enqueued
			for step, from := 1, 40; !g.open(0); step, from = step+1, from+20 {
				if step > 3 {
					t.Fatalf("pan did not re-open the gate in 3 steps: %+v", g.pf.snapshot())
				}
				g.tile(0, from, from+20)
			}
			// The step that re-opened the gate speculated its neighbours.
			if after := g.pf.snapshot().Enqueued; after <= before {
				t.Fatalf("re-opened gate enqueued nothing: %d then %d", before, after)
			}
		}},
		{"jumps on pane 1 leave pane 0's pan open", func(t *testing.T, g *gateWalk) {
			g.tile(0, 0, 20)
			for from := 20; from < 200; from += 20 {
				g.jump(1)
				g.jump(1)
				if disp := g.tile(0, from, from+20); disp != dispPrefetched || !g.open(0) {
					t.Fatalf("pane 0 rows %d:%d = %q beside pane 1's jumps: %+v", from, from+20, disp, g.pf.snapshot())
				}
			}
			if g.open(1) {
				t.Fatalf("18 random windows left pane 1 open: %+v", g.pf.snapshot())
			}
		}},
		{"viewers panning both panes at once stay open", func(t *testing.T, g *gateWalk) {
			// Two pans a pane, each followed by its own last prediction,
			// while /api/stats reads the shares (run under -race).
			var wg sync.WaitGroup
			for v := 0; v < 4; v++ {
				wg.Add(1)
				go func(pane, start int) {
					defer wg.Done()
					for from := start; from < start+100; from += 10 {
						u := fmt.Sprintf("/api/heatmap?dataset=%d&rows=%d:%d&w=%d&h=%d", pane, from, from+10, gateWalkPx, gateWalkPx)
						rec := httptest.NewRecorder()
						g.s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, u, nil))
						if rec.Code != http.StatusOK {
							t.Errorf("%s = %d", u, rec.Code)
						}
						g.s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/api/stats", nil))
					}
				}(v%2, 110*(v/2))
			}
			wg.Wait()
			if !g.open(0) || !g.open(1) {
				t.Fatalf("concurrent pans closed a gate: %+v", g.pf.snapshot())
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.walk(t, newGateWalk(t)) })
	}
}
