package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image/color"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"forestview/internal/cluster"
	"forestview/internal/core"
	"forestview/internal/microarray"
	"forestview/internal/render"
	"forestview/internal/spell"
	"forestview/internal/synth"
)

// rawFixture builds a daemon whose heatmap panes are raw datasets — the
// lazy tree-cache path — sharing the SPELL engine across tests.
func rawFixture(t testing.TB, nDatasets int) (*Server, []*microarray.Dataset) {
	t.Helper()
	u := synth.NewUniverse(220, 8, 77)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: nDatasets, MinExperiments: 10, MaxExperiments: 12,
		ActiveFraction: 0.5, Noise: 0.25, MissingRate: 0.02, Seed: 78,
	})
	engine, err := spell.NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	// The queue is sized for the coalescing test's burst: every waiter of a
	// cold tree unblocks at once and submits its render together.
	srv, err := New(Config{
		Engine: engine, RawDatasets: dss,
		CacheBytes: 8 << 20, RenderWorkers: 2, RenderQueue: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, dss
}

// pearsonAverage is the daemon's default clustering (Cluster 3.0's).
var pearsonAverage = core.ClusterOptions{Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage}

func treeStats(t *testing.T, s *Server) TreeCacheInfo {
	t.Helper()
	rec := get(t, s, "/api/stats")
	var snap StatsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap.TreeCache
}

// TestHeatmapParamValidation is the table-driven validation sweep over
// /api/heatmap on a lazily-clustered daemon: every rejection must happen
// before a tree is built (cheap validation first), and by-name addressing
// must resolve raw panes.
func TestHeatmapParamValidation(t *testing.T) {
	s, dss := rawFixture(t, 2)
	name := dss[1].Name
	cases := []struct {
		name string
		url  string
		want int
	}{
		{"missing dataset", "/api/heatmap", http.StatusBadRequest},
		{"index out of range", "/api/heatmap?dataset=99", http.StatusNotFound},
		{"unknown name", "/api/heatmap?dataset=nope", http.StatusNotFound},
		{"zero width", "/api/heatmap?dataset=0&w=0", http.StatusBadRequest},
		{"oversized width", "/api/heatmap?dataset=0&w=99999", http.StatusBadRequest},
		{"oversized height", "/api/heatmap?dataset=0&h=99999", http.StatusBadRequest},
		{"reversed rows", "/api/heatmap?dataset=0&rows=5:2", http.StatusBadRequest},
		{"garbage rows", "/api/heatmap?dataset=0&rows=0:5junk", http.StatusBadRequest},
		{"negative rows", "/api/heatmap?dataset=0&rows=-3:5", http.StatusBadRequest},
		{"rows past end", "/api/heatmap?dataset=0&rows=100000:100002", http.StatusBadRequest},
		{"bad cmap", "/api/heatmap?dataset=0&cmap=sepia", http.StatusBadRequest},
		{"bad limit", "/api/heatmap?dataset=0&limit=-1", http.StatusBadRequest},
		{"NaN limit", "/api/heatmap?dataset=0&limit=NaN", http.StatusBadRequest},
		{"infinite limit", "/api/heatmap?dataset=0&limit=%2BInf", http.StatusBadRequest},
		{"tree not a number", "/api/heatmap?dataset=0&tree=wide", http.StatusBadRequest},
		{"tree swallows tile", "/api/heatmap?dataset=0&w=128&tree=128", http.StatusBadRequest},
		{"tree with row subrange", "/api/heatmap?dataset=0&tree=32&rows=0:10", http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if rec := get(t, s, c.url); rec.Code != c.want {
				t.Errorf("%s = %d, want %d", c.url, rec.Code, c.want)
			}
		})
	}
	// Every rejection above must have been answered from the row count
	// alone: no pane may have clustered.
	if ts := treeStats(t, s); ts.Builds != 0 || ts.Built != 0 {
		t.Fatalf("validation built trees: %+v", ts)
	}

	// By-name lookup of a raw pane triggers exactly one build.
	if rec := get(t, s, "/api/heatmap?dataset="+url.QueryEscape(name)+"&w=64&h=48"); rec.Code != http.StatusOK {
		t.Fatalf("by-name tile = %d: %s", rec.Code, rec.Body.String())
	}
	if ts := treeStats(t, s); ts.Builds != 1 || ts.Built != 1 || ts.Panes != 2 {
		t.Fatalf("after by-name tile: %+v", ts)
	}
}

// TestTreeCacheConcurrentSingleBuild is the coalescing proof for the tree
// cache: N concurrent requests for N *distinct* tiles of one cold dataset
// (distinct row windows, so the PNG-level cache and singleflight cannot
// dedupe them) must cluster the dataset exactly once. Run with -race.
func TestTreeCacheConcurrentSingleBuild(t *testing.T) {
	s, _ := rawFixture(t, 1)
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("/api/heatmap?dataset=0&w=32&h=24&rows=%d:%d", i, i+20)
			if rec := get(t, s, url); rec.Code != http.StatusOK {
				t.Errorf("tile %d = %d: %s", i, rec.Code, rec.Body.String())
			}
		}(i)
	}
	wg.Wait()
	ts := treeStats(t, s)
	if ts.Builds != 1 {
		t.Fatalf("builds = %d, want exactly 1 (tree coalescing failed): %+v", ts.Builds, ts)
	}
	if ts.Hits+ts.Coalesced != n-1 {
		t.Fatalf("hits(%d)+coalesced(%d) != %d: %+v", ts.Hits, ts.Coalesced, n-1, ts)
	}
	// The heatmap endpoint really rendered n distinct tiles.
	if ep := statsOf(t, s, "heatmap"); ep.Computed != n {
		t.Fatalf("tiles computed = %d, want %d", ep.Computed, n)
	}
}

// TestTreeCacheLeaderCancelHandover: a leader whose context dies before its
// build finishes must not fail live followers — they get the leader's
// build, the one and only. The build cannot start until every build slot is
// released, so the hangup always lands while the follower waits.
func TestTreeCacheLeaderCancelHandover(t *testing.T) {
	u := synth.NewUniverse(1200, 10, 5)
	ds := u.Generate(synth.DatasetSpec{Name: "big", NumExperiments: 24, Seed: 6})
	tc := newTreeCache(pearsonAverage, nil, []*microarray.Dataset{ds})
	release := holdSlots(t, tc.pool, cap(tc.pool.slots))

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := tc.get(leaderCtx, 0)
		leaderErr <- err
	}()
	waitWaiters(t, &tc.flights, "0", 1)
	followerErr := make(chan error, 1)
	go func() {
		cd, err := tc.get(context.Background(), 0)
		if err == nil && (cd == nil || cd.GeneTree == nil) {
			err = fmt.Errorf("follower got no tree")
		}
		followerErr <- err
	}()
	waitWaiters(t, &tc.flights, "0", 2)
	cancelLeader()
	release()

	if err := <-followerErr; err != nil {
		t.Fatalf("follower failed after leader cancel: %v", err)
	}
	if err := <-leaderErr; err != nil && err != context.Canceled {
		t.Fatalf("leader error = %v, want nil or context.Canceled", err)
	}
	if n := tc.stat.computed.Load(); n != 1 {
		t.Fatalf("builds started = %d, want 1: the follower gets the leader's build", n)
	}
	if cd, err := tc.get(context.Background(), 0); err != nil || cd == nil {
		t.Fatalf("cache not settled: %v", err)
	}
}

// TestTreeFollowerHangup: a tile request that joined a cold pane's build
// answers 499 the moment its own client hangs up — it does not sit out the
// build — and the build, and every later request, are none the worse.
func TestTreeFollowerHangup(t *testing.T) {
	s, _ := rawFixture(t, 1)
	// Someone else is clustering pane 0 and will be for a while.
	release := holdFlight(t, &s.trees.flights, "0", (*core.ClusteredDataset)(nil))
	ctx, hangUp := context.WithCancel(context.Background())
	answered := make(chan int, 1)
	go func() {
		req := httptest.NewRequest(http.MethodGet, "/api/heatmap?dataset=0&w=32&h=32", nil)
		answered <- serve(s, req.WithContext(ctx)).Code
	}()
	waitWaiters(t, &s.trees.flights, "0", 2) // the request is at the flight
	hangUp()
	select {
	case code := <-answered:
		if code != statusClientClosedRequest {
			t.Fatalf("follower that hung up = %d, want %d", code, statusClientClosedRequest)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a follower whose client hung up is still waiting for the leader's build")
	}
	release()
	if rec := get(t, s, "/api/heatmap?dataset=0&w=32&h=32"); rec.Code != http.StatusOK {
		t.Fatalf("tile after the hangup = %d: %s", rec.Code, rec.Body.String())
	}
	if ts := treeStats(t, s); ts.Builds != 1 || ts.Built != 1 {
		t.Fatalf("after the hangup: %+v (want one build)", ts)
	}
}

// TestTreeFollowerInterrupted: a live tile request is never interrupted by
// its leaders' hangups. Two requests ahead of it on a cold pane's build —
// the one that opened the flight and one that joined — hang up while the
// build waits for a slot; the live one gets its tile from that one build,
// and nothing is shed.
func TestTreeFollowerInterrupted(t *testing.T) {
	s, _ := rawFixture(t, 1)
	release := holdSlots(t, s.trees.pool, cap(s.trees.pool.slots))
	const url = "/api/heatmap?dataset=0&w=32&h=32"
	request := func(ctx context.Context, codes chan<- int) {
		codes <- serve(s, httptest.NewRequest(http.MethodGet, url, nil).WithContext(ctx)).Code
	}
	gone := make(chan int, 2)
	var hangUps []context.CancelFunc
	for i := 0; i < 2; i++ {
		ctx, hangUp := context.WithCancel(context.Background())
		hangUps = append(hangUps, hangUp)
		go request(ctx, gone)
		waitWaiters(t, &s.trees.flights, "0", i+1)
	}
	live := make(chan int, 1)
	go request(context.Background(), live)
	waitWaiters(t, &s.trees.flights, "0", 3)
	for _, hangUp := range hangUps {
		hangUp()
	}
	if code := <-gone; code != statusClientClosedRequest {
		t.Fatalf("the joiner that hung up = %d, want %d", code, statusClientClosedRequest)
	}
	release()
	if code := <-live; code != http.StatusOK {
		t.Fatalf("live tile = %d", code)
	}
	if code := <-gone; code != statusClientClosedRequest {
		t.Fatalf("the leader that hung up = %d, want %d", code, statusClientClosedRequest)
	}
	if ep := statsOf(t, s, "heatmap"); ep.Rejected != 0 {
		t.Fatalf("rejected = %d, want 0", ep.Rejected)
	}
	if ts := treeStats(t, s); ts.Builds != 1 || ts.Coalesced != 2 || s.trees.stat.computed.Load() != 1 {
		t.Fatalf("after two hangups: %+v, %d builds started (want one build, 2 joins)", ts, s.trees.stat.computed.Load())
	}
}

// TestHeatmapDendrogramStrip: tree=W draws a dendrogram panel and the tile
// stays a valid PNG; a pane without a gene tree refuses honestly.
func TestHeatmapDendrogramStrip(t *testing.T) {
	s, _ := rawFixture(t, 1)
	withTree := get(t, s, "/api/heatmap?dataset=0&w=256&h=128&tree=64")
	if withTree.Code != http.StatusOK || !bytes.HasPrefix(withTree.Body.Bytes(), pngMagic) {
		t.Fatalf("tree tile = %d", withTree.Code)
	}
	plain := get(t, s, "/api/heatmap?dataset=0&w=256&h=128")
	if plain.Code != http.StatusOK {
		t.Fatalf("plain tile = %d", plain.Code)
	}
	if bytes.Equal(withTree.Body.Bytes(), plain.Body.Bytes()) {
		t.Fatal("dendrogram strip did not change the tile")
	}

	// A pre-clustered pane without a gene tree (CDT-style display order
	// only) cannot draw a dendrogram.
	u := synth.NewUniverse(60, 4, 3)
	flat, err := core.FromDataset(u.Generate(synth.DatasetSpec{Name: "flat", NumExperiments: 8, Seed: 4}))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := spell.NewEngine([]*microarray.Dataset{flat.Data})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Engine: engine, Datasets: []*core.ClusteredDataset{flat}, RenderWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	if rec := get(t, s2, "/api/heatmap?dataset=flat&tree=32"); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("treeless pane with tree param = %d", rec.Code)
	}
	if rec := get(t, s2, "/api/heatmap?dataset=flat&w=64&h=64"); rec.Code != http.StatusOK {
		t.Fatalf("treeless pane plain tile = %d", rec.Code)
	}
}

// TestMixedPreAndRawPanes: pre-clustered panes occupy the low indices, raw
// panes follow, and both resolve by name; pre-clustered panes never count
// as builds.
func TestMixedPreAndRawPanes(t *testing.T) {
	u := synth.NewUniverse(120, 5, 11)
	pre := u.Generate(synth.DatasetSpec{Name: "pre", NumExperiments: 8, Seed: 12})
	raw := u.Generate(synth.DatasetSpec{Name: "raw", NumExperiments: 8, Seed: 13})
	cd, err := core.Cluster(pre, core.ClusterOptions{Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := spell.NewEngine([]*microarray.Dataset{pre, raw})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Engine:        engine,
		Datasets:      []*core.ClusteredDataset{cd},
		RawDatasets:   []*microarray.Dataset{raw},
		RenderWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	if rec := get(t, s, "/api/heatmap?dataset=pre&w=32&h=32"); rec.Code != http.StatusOK {
		t.Fatalf("pre pane = %d", rec.Code)
	}
	ts := treeStats(t, s)
	if ts.Builds != 0 || ts.Hits != 1 || ts.Panes != 2 || ts.Built != 1 {
		t.Fatalf("pre pane stats: %+v", ts)
	}
	if rec := get(t, s, "/api/heatmap?dataset=raw&w=32&h=32"); rec.Code != http.StatusOK {
		t.Fatalf("raw pane = %d", rec.Code)
	}
	if ts := treeStats(t, s); ts.Builds != 1 || ts.Built != 2 {
		t.Fatalf("raw pane stats: %+v", ts)
	}
}

// TestRawPaneIsCallersMatrix: a raw pane keeps the caller's rows and not its
// gene table, and what it builds and draws is what the caller's full dataset
// gives. Its trees match core.ClusterCtx over that dataset bit for bit, and
// its tiles (level 0, a pyramid level, both dendrogram strips) match
// RenderHeatmap + EncodePNG over that reference byte for byte.
func TestRawPaneIsCallersMatrix(t *testing.T) {
	u := synth.NewUniverse(220, 8, 91)
	gen, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 1, MinExperiments: 11, MaxExperiments: 11,
		ActiveFraction: 0.5, Noise: 0.25, MissingRate: 0.05, Seed: 92,
	})
	var pcl bytes.Buffer
	if err := microarray.WritePCL(&pcl, gen[0]); err != nil {
		t.Fatal(err)
	}
	ds, err := microarray.ReadPCL(&pcl, gen[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(ds.Data, func(row []float64) bool { return slices.ContainsFunc(row, math.IsNaN) }) {
		t.Fatal("fixture has no missing cells")
	}
	opt := pearsonAverage
	opt.ClusterArrays = true
	ref, err := core.ClusterCtx(context.Background(), ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := spell.NewEngine(gen)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Engine: engine, RawDatasets: []*microarray.Dataset{ds}, ClusterArrays: true, RenderWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	cd, err := s.trees.get(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m := cd.Data; m.Genes != nil || m.GWeights != nil || m.EWeights != nil || m.NumGenes() != ds.NumGenes() {
		t.Fatalf("pane keeps %d genes, %d gene and %d array weights over %d rows; want only the %d rows",
			len(m.Genes), len(m.GWeights), len(m.EWeights), m.NumGenes(), ds.NumGenes())
	}
	for _, tr := range []struct {
		axis      string
		got, want *cluster.Tree
	}{{"gene", cd.GeneTree, ref.GeneTree}, {"array", cd.ArrayTree, ref.ArrayTree}} {
		if tr.got == nil || tr.got.NLeaves != tr.want.NLeaves || len(tr.got.Merges) != len(tr.want.Merges) {
			t.Fatalf("%s tree: got %+v, want %d leaves", tr.axis, tr.got, tr.want.NLeaves)
		}
		for i, m := range tr.got.Merges {
			w := tr.want.Merges[i]
			if m.A != w.A || m.B != w.B || math.Float64bits(m.Height) != math.Float64bits(w.Height) {
				t.Fatalf("%s tree merge %d = %+v, want %+v", tr.axis, i, m, w)
			}
		}
	}

	n := ds.NumGenes()
	fg := color.RGBA{R: 180, G: 180, B: 180, A: 255}
	for _, tc := range []struct {
		query                  string
		w, h, level, treeW, ah int
	}{
		{"w=96&h=256", 96, 256, 0, 0, 0},
		{"w=96&h=64", 96, 64, 1, 0, 0},
		{"w=160&h=256&tree=40&atree=48", 160, 256, 0, 40, 48},
	} {
		c := render.NewCanvas(tc.w, tc.h, color.RGBA{A: 255})
		render.RenderDendrogram(c, render.Rect{X: tc.treeW, W: tc.w - tc.treeW, H: tc.ah},
			ref.ArrayTree, render.AboveColumns, fg)
		render.RenderDendrogram(c, render.Rect{Y: tc.ah, W: tc.treeW, H: tc.h - tc.ah},
			ref.GeneTree, render.LeftOfRows, fg)
		rows := ref.RowsInDisplayRange(0, n)
		if tc.level > 0 {
			rows = ref.Pyramid(core.PyramidOptions{}).Level(tc.level).F64
		}
		var colOrder []int
		if tc.ah > 0 {
			colOrder = ref.ArrayOrder
		}
		render.RenderHeatmap(c, render.Rect{X: tc.treeW, Y: tc.ah, W: tc.w - tc.treeW, H: tc.h - tc.ah}, rows,
			render.HeatmapOptions{ColorMap: render.GreenBlackRed, Limit: 2, CellBorder: true, ColOrder: colOrder})
		var want bytes.Buffer
		if err := c.EncodePNG(&want); err != nil {
			t.Fatal(err)
		}
		rec := get(t, s, "/api/heatmap?dataset=0&"+tc.query)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", tc.query, rec.Code, rec.Body)
		}
		if lv := rec.Header().Get("X-Forestview-Level"); lv != fmt.Sprint(tc.level) {
			t.Fatalf("%s resolved level %s, want %d", tc.query, lv, tc.level)
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Errorf("%s differs from the reference render (%d vs %d bytes)", tc.query, rec.Body.Len(), want.Len())
		}
	}
}

// TestTreeCacheBoundsConcurrentBuilds: 3 × GOMAXPROCS cold panes touched at
// once — as a booting daemon's first screenful does — cluster at most
// GOMAXPROCS at a time, each exactly once; and a leader whose client hangs up
// while it waits for a build slot takes none. The builds are held in their
// slots on a gate the test opens, so every state it checks is one it waited
// for. Run with -race.
func TestTreeCacheBoundsConcurrentBuilds(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	u := synth.NewUniverse(700, 8, 41)
	var panes []*microarray.Dataset
	for i := 0; i < 3*procs+1; i++ {
		panes = append(panes, u.Generate(synth.DatasetSpec{Name: fmt.Sprint("pane-", i), NumExperiments: 16, Seed: int64(42 + i)}))
	}
	tc := newTreeCache(pearsonAverage, nil, panes)
	last := 3 * procs // the pane whose leader gives up waiting

	// Each build reads the gauge from inside its slot: the builds the gate
	// holds keep theirs, so the last of them to start reads the peak.
	gate := make(chan struct{})
	var peak atomic.Int64
	tc.hook = func() {
		for b := int64(tc.snapshot().Building); ; {
			p := peak.Load()
			if b <= p || peak.CompareAndSwap(p, b) {
				break
			}
		}
		<-gate
	}

	var wg sync.WaitGroup
	for i := 0; i < last; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if cd, err := tc.get(context.Background(), i); err != nil || cd == nil {
				t.Errorf("pane %d: %v", i, err)
			}
		}(i)
	}
	queued := int64(last - procs)
	waitUntil(t, "every slot held and the other builds queued", func() bool {
		return tc.pool.Running() == procs && tc.pool.waiting.Load() == queued
	})
	// With every slot taken, a leader that is cancelled while it waits
	// returns its context's error and leaves the pane buildable.
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := tc.get(ctx, last)
		waiter <- err
	}()
	waitUntil(t, "the last leader queued for a slot", func() bool { return tc.pool.waiting.Load() == queued+1 })
	cancel()
	if err := <-waiter; err != context.Canceled {
		t.Fatalf("leader cancelled waiting for a slot: err = %v, want context.Canceled", err)
	}
	close(gate)
	wg.Wait()

	if p := peak.Load(); p != int64(procs) {
		t.Fatalf("building gauge peaked at %d, want GOMAXPROCS (%d)", p, procs)
	}
	info := tc.snapshot()
	if info.Builds != int64(last) || info.Built != last || info.Building != 0 {
		t.Fatalf("after %d panes touched once each: %+v (a cancelled waiter must leave no slot taken)", last, info)
	}
	if cd, err := tc.get(context.Background(), last); err != nil || cd == nil {
		t.Fatalf("the cancelled leader's pane did not build afterwards: %v", err)
	}
}

// waitUntil polls cond until it holds, and fails the test naming what it
// waited for if that takes more than 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("waited 10 s for %s", what)
		}
	}
}
