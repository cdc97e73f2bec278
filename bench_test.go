package forestview

// One benchmark family per paper artifact (figure or quantified claim).
// DESIGN.md §9 maps each to its experiment ID; EXPERIMENTS.md records
// the measured series next to what the paper reports.

import (
	"bytes"
	"context"
	"fmt"
	"image/color"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"forestview/internal/baseline"
	"forestview/internal/cluster"
	"forestview/internal/core"
	"forestview/internal/fleettest"
	"forestview/internal/golem"
	"forestview/internal/microarray"
	"forestview/internal/ontology"
	"forestview/internal/oracle"
	"forestview/internal/render"
	"forestview/internal/server"
	"forestview/internal/shard"
	"forestview/internal/spell"
	"forestview/internal/synth"
	"forestview/internal/tilecorr"
	"forestview/internal/wall"
)

// ---------------------------------------------------------------------------
// Shared fixtures, built once.

type fixture struct {
	universe *synth.Universe
	caseCol  []*microarray.Dataset
	panes    []*core.ClusteredDataset
	fv       *core.ForestView
	onto     *ontology.Ontology
	ann      *ontology.Annotations
	enricher *golem.Enricher
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func getFixture(b testing.TB) *fixture {
	fixOnce.Do(func() {
		u := synth.NewUniverse(800, 16, 7)
		col := synth.StressCaseCollection(u, 500)
		var panes []*core.ClusteredDataset
		for _, ds := range col {
			cd, err := core.Cluster(ds, core.ClusterOptions{
				Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage})
			if err != nil {
				panic(err)
			}
			panes = append(panes, cd)
		}
		fv, err := core.New(panes)
		if err != nil {
			panic(err)
		}
		onto, ann, err := u.Ontology(9)
		if err != nil {
			panic(err)
		}
		enr, err := golem.NewEnricher(onto, ann, u.GeneIDs())
		if err != nil {
			panic(err)
		}
		fix = &fixture{
			universe: u, caseCol: col, panes: panes, fv: fv,
			onto: onto, ann: ann, enricher: enr,
		}
	})
	return fix
}

// ---------------------------------------------------------------------------
// F1 — Figure 1 (software architecture): merged dataset interface.

func BenchmarkF1_MergedInterfaceBuild(b *testing.B) {
	f := getFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewMerged(f.caseCol); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF1_MergedInterfaceAccess(b *testing.B) {
	f := getFixture(b)
	m := f.fv.Merged()
	rng := rand.New(rand.NewSource(1))
	nD, nG := m.NumDatasets(), m.NumGenes()
	b.ResetTimer()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		d := rng.Intn(nD)
		g := rng.Intn(nG)
		sink += m.Value(d, g, i%m.NumExperiments(d))
	}
	_ = sink
}

// ---------------------------------------------------------------------------
// F2 — Figure 2 (gene subset across datasets): synchronized pane rendering.

func BenchmarkF2_SynchronizedPanes(b *testing.B) {
	u := synth.NewUniverse(600, 12, 3)
	for _, nPanes := range []int{1, 3, 6, 12} {
		b.Run(fmt.Sprintf("panes-%d", nPanes), func(b *testing.B) {
			var cds []*core.ClusteredDataset
			for i := 0; i < nPanes; i++ {
				ds := u.Generate(synth.DatasetSpec{
					Name: fmt.Sprintf("ds%d", i), NumExperiments: 20, Seed: int64(i + 1)})
				cd, err := core.Cluster(ds, core.ClusterOptions{
					Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage})
				if err != nil {
					b.Fatal(err)
				}
				cds = append(cds, cd)
			}
			fv, err := core.New(cds)
			if err != nil {
				b.Fatal(err)
			}
			if err := fv.SelectRegion(0, 0, 29); err != nil {
				b.Fatal(err)
			}
			c := render.NewCanvas(1920, 1080, color.RGBA{A: 255})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fv.RenderScene(c, 1920, 1080)
			}
		})
	}
}

func BenchmarkF2_SelectionSize(b *testing.B) {
	f := getFixture(b)
	for _, sel := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("genes-%d", sel), func(b *testing.B) {
			if err := f.fv.SelectRegion(0, 0, sel-1); err != nil {
				b.Fatal(err)
			}
			c := render.NewCanvas(1920, 1080, color.RGBA{A: 255})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.fv.RenderScene(c, 1920, 1080)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// F3 — Figure 3 (display wall deployment): synchronized frame rendering
// across tile grids.

func BenchmarkF3_WallScaling(b *testing.B) {
	f := getFixture(b)
	if err := f.fv.SelectRegion(0, 0, 29); err != nil {
		b.Fatal(err)
	}
	scene := core.WallScene{FV: f.fv}
	configs := []struct {
		name string
		cfg  wall.Config
	}{
		{"desktop-1x1-2MP", wall.Desktop2MP()},
		{"tiles-2x2-3MP", wall.Config{TilesX: 2, TilesY: 2, TileW: 1024, TileH: 768}},
		{"princeton-8x3-19MP", wall.PrincetonWall()},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			w, err := wall.NewWall(c.cfg, scene)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var skew int64
			for i := 0; i < b.N; i++ {
				fs := w.RenderFrame()
				skew += fs.SkewNS
			}
			b.StopTimer()
			pixPerFrame := float64(c.cfg.Pixels())
			b.ReportMetric(pixPerFrame*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpix/s")
			b.ReportMetric(float64(skew)/float64(b.N)/1e6, "skew-ms/frame")
		})
	}
}

// ---------------------------------------------------------------------------
// F4 — Figure 4 (SPELL search): latency vs compendium size.

func BenchmarkF4_SPELL(b *testing.B) {
	u := synth.NewUniverse(1000, 20, 13)
	query := u.ModuleGeneIDs(4)[:4]
	for _, nDS := range []int{5, 10, 20} {
		b.Run(fmt.Sprintf("datasets-%d", nDS), func(b *testing.B) {
			dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
				NumDatasets: nDS, MinExperiments: 12, MaxExperiments: 24,
				ActiveFraction: 0.4, Noise: 0.25, Seed: 17,
			})
			benchSearch(b, dss, query)
		})
	}
	// The regime the daemon and the repo benchmark serve: paper scale, and
	// the default compendium's 2% missing cells beside complete data.
	pu := synth.NewUniverse(paperGenes, 20, 13)
	pquery := pu.ModuleGeneIDs(4)[:4]
	for _, missing := range []float64{0, 0.02} {
		b.Run(fmt.Sprintf("paper-6000x24/missing=%g", missing), func(b *testing.B) {
			benchSearch(b, paperCompendium(pu, missing), pquery)
		})
	}
}

// paperGenes x paperCompendium is the paper-scale SPELL fixture: 6,000
// genes x 24 datasets x 12-40 experiments, the shape forestviewd -demo and
// bench/ build by default.
const paperGenes = 6000

func paperCompendium(u *synth.Universe, missing float64) []*microarray.Dataset {
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 24, MinExperiments: 12, MaxExperiments: 40,
		ActiveFraction: 0.4, Noise: 0.25, MissingRate: missing, Seed: 17,
	})
	return dss
}

func benchSearch(b *testing.B, dss []*microarray.Dataset, query []string) {
	engine, err := spell.NewEngine(dss)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Search(query, spell.Options{MaxGenes: 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF4_SPELLReference runs the identical workload through
// oracle.Search, the naive serial scorer (map-merged, per-pair Pearson from
// scratch), so the dense kernel's speedup is measurable within one binary:
// compare against BenchmarkF4_SPELL at the same dataset counts.
func BenchmarkF4_SPELLReference(b *testing.B) {
	u := synth.NewUniverse(1000, 20, 13)
	query := u.ModuleGeneIDs(4)[:4]
	for _, nDS := range []int{5, 10, 20} {
		b.Run(fmt.Sprintf("datasets-%d", nDS), func(b *testing.B) {
			dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
				NumDatasets: nDS, MinExperiments: 12, MaxExperiments: 24,
				ActiveFraction: 0.4, Noise: 0.25, Seed: 17,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := oracle.Search(dss, spell.CanonicalQuery(query), oracle.SearchOptions{MaxGenes: 50}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkF4_SPELLEngineBuild(b *testing.B) {
	u := synth.NewUniverse(1000, 20, 13)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 10, MinExperiments: 12, MaxExperiments: 24,
		ActiveFraction: 0.4, Noise: 0.25, Seed: 17,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spell.NewEngine(dss); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF4_ReadPCL parses paperFixture's 24 PCL files, what a daemon
// boot or a shard reload reads before anything else (`microarray.pcl_parse_s`
// in BENCHMARK.json): MB/s over the files' bytes, allocs per 24-file pass.
// Each file is parsed on up to GOMAXPROCS workers.
func BenchmarkF4_ReadPCL(b *testing.B) { benchReadPCL(b) }

// BenchmarkF4_ReadPCLSerial is BenchmarkF4_ReadPCL on one core, so a
// per-core regression cannot hide behind the workers.
func BenchmarkF4_ReadPCLSerial(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	benchReadPCL(b)
}

func benchReadPCL(b *testing.B) {
	var files [][]byte
	size := 0
	for _, ds := range paperFixture() {
		var buf bytes.Buffer
		if err := microarray.WritePCL(&buf, ds); err != nil {
			b.Fatal(err)
		}
		files = append(files, buf.Bytes())
		size += buf.Len()
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range files {
			if _, err := microarray.ReadPCL(bytes.NewReader(f), "bench"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// F4b — the clustering half of the interactive-heatmap path: the
// nearest-neighbor-chain kernel at the paper's dataset scale, timed for the
// README table (GOMAXPROCS=2).

func clusterBenchRows(nGenes int) [][]float64 {
	u := synth.NewUniverse(nGenes, 20, 29)
	ds := u.Generate(synth.DatasetSpec{Name: "cl", NumExperiments: 50, Seed: 31})
	return ds.Data
}

// paperFixture is the repo benchmark's compendium: the synth spec and seed
// of bench/spec.go and bench/data.go, 24 datasets of 6,000 genes.
func paperFixture() []*microarray.Dataset {
	const seed = 20070326
	u := synth.NewUniverse(paperGenes, 40, seed)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 24, MinExperiments: 12, MaxExperiments: 40,
		ActiveFraction: 0.4, Noise: 0.25, MissingRate: 0.02, Seed: seed + 50,
	})
	return dss
}

// paperPaneRows is pane 0 of paperFixture, through the same PCL bytes a
// daemon parses: 6,000 rows × 37 experiments at 2% missing, the pane whose
// tree is `cluster.tree_s` in BENCHMARK.json.
func paperPaneRows(b *testing.B) [][]float64 {
	dss := paperFixture()
	var buf bytes.Buffer
	if err := microarray.WritePCL(&buf, dss[0]); err != nil {
		b.Fatal(err)
	}
	ds, err := microarray.ReadPCL(&buf, dss[0].Name)
	if err != nil {
		b.Fatal(err)
	}
	if ds.NumGenes() != paperGenes || ds.NumExperiments() != 37 {
		b.Fatalf("pane 0 is %d x %d, want %d x 37: the fixture spec moved", ds.NumGenes(), ds.NumExperiments(), paperGenes)
	}
	return ds.Data
}

// BenchmarkF4_Cluster times whole trees, and reports dist-ms besides: the
// distance build (stage 1) by itself, timed after the measured loop — so the
// trajectory can tell the matrix from the NN-chain without a profiler.
func BenchmarkF4_Cluster(b *testing.B) {
	run := func(b *testing.B, rows [][]float64) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.HierarchicalCtx(context.Background(), rows, cluster.PearsonDist, cluster.AverageLinkage); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			ctx := &stageOneCtx{Context: context.Background(), left: (len(rows)+tilecorr.BlockRows-1)/tilecorr.BlockRows + 1}
			if _, err := cluster.HierarchicalCtx(ctx, rows, cluster.PearsonDist, cluster.AverageLinkage); err != context.Canceled {
				b.Fatalf("stage 1 alone: err = %v, want context.Canceled", err)
			}
		}
		b.ReportMetric(float64(time.Since(start).Nanoseconds())/1e6/float64(b.N), "dist-ms")
	}
	for _, nGenes := range []int{500, 1000, 2000} {
		rows := clusterBenchRows(nGenes)
		b.Run(fmt.Sprintf("genes-%d", nGenes), func(b *testing.B) { run(b, rows) })
	}
	// What a daemon boots on: rows with missing cells, which the complete
	// synthetic rows above never had.
	b.Run("paper-6000x37/missing=0.02", func(b *testing.B) { run(b, paperPaneRows(b)) })
}

// stageOneCtx stops a Pearson tree build between its stages. The distance
// build polls its context once per block of tilecorr.BlockRows rows, once
// when every block is in and once when the triangle is mirrored; the
// context answers nil to the first left polls and context.Canceled from
// then on, so the build returns that error with the matrix complete and
// before the chain starts.
type stageOneCtx struct {
	context.Context
	mu   sync.Mutex
	left int
}

func (c *stageOneCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// BenchmarkF4_ClusterWarm times a paper-scale boot's trees: the repo
// benchmark's four panes (paperFixture's first four, 6,000 rows × 37, 27,
// 12 and 33 experiments) clustered by Server.WarmTrees, GOMAXPROCS builds
// at a time, on a fresh server and a collected heap each iteration, as a
// daemon warms once at boot. Besides B/op it reports
// peak-MB, the largest /memory/classes/heap/objects:bytes sampled each
// millisecond over the iterations (live objects and garbage not yet swept,
// which is what a build's transient costs the process), and base-MB, the
// same reading after a collection before the first: the heap no build
// has touched. A 6,000-row build's square is 288 MB.
func BenchmarkF4_ClusterWarm(b *testing.B) {
	dss := paperFixture()[:4]
	for i, exps := range []int{37, 27, 12, 33} {
		if dss[i].NumGenes() != paperGenes || dss[i].NumExperiments() != exps {
			b.Fatalf("pane %d is %d x %d, want %d x %d: the fixture spec moved", i, dss[i].NumGenes(), dss[i].NumExperiments(), paperGenes, exps)
		}
	}
	engine, err := spell.NewEngine(dss)
	if err != nil {
		b.Fatal(err)
	}
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() uint64 {
		metrics.Read(heap)
		return heap[0].Value.Uint64()
	}
	runtime.GC()
	base, peak := read(), uint64(0)
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				peak = max(peak, read())
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC() // a boot warms once: no earlier warm's garbage
		b.StartTimer()
		srv, err := server.New(server.Config{Engine: engine, RawDatasets: dss})
		if err != nil {
			b.Fatal(err)
		}
		err = srv.WarmTrees(context.Background())
		srv.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-sampled
	b.ReportMetric(float64(peak)/1e6, "peak-MB")
	b.ReportMetric(float64(base)/1e6, "base-MB")
}

// BenchmarkF4_PaneRetained reports what a daemon keeps of one raw pane, in
// B/pane: the live heap of a server whose only raw pane is paperFixture's
// pane 0, parsed from PCL, less that of the same server with no pane. The
// engine is built from a separate parse, so only the server references the
// pane, and two collections (the second empties the parser's buffer pool)
// leave only what is reachable.
func BenchmarkF4_PaneRetained(b *testing.B) {
	var pcl bytes.Buffer
	if err := microarray.WritePCL(&pcl, paperFixture()[0]); err != nil {
		b.Fatal(err)
	}
	parse := func() []*microarray.Dataset {
		ds, err := microarray.ReadPCL(bytes.NewReader(pcl.Bytes()), "pane-0")
		if err != nil {
			b.Fatal(err)
		}
		return []*microarray.Dataset{ds}
	}
	engine, err := spell.NewEngine(parse())
	if err != nil {
		b.Fatal(err)
	}
	live := func(raw []*microarray.Dataset) uint64 {
		s, err := server.New(server.Config{Engine: engine, RawDatasets: raw})
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.Close()
		return ms.HeapAlloc
	}
	var kept float64
	for i := 0; i < b.N; i++ {
		bare := live(nil)
		kept += float64(live(parse())) - float64(bare)
	}
	b.ReportMetric(kept/float64(b.N), "B/pane")
}

// BenchmarkF4_HeatmapTile measures the daemon's full tile pipeline against
// a warmed tree cache: each iteration requests a distinct row window, so
// the clustered tree is reused (one build total, amortized away before the
// timer) while the render + PNG-encode + cache path runs end to end.
func BenchmarkF4_HeatmapTile(b *testing.B) {
	u := synth.NewUniverse(2000, 20, 29)
	ds := u.Generate(synth.DatasetSpec{Name: "tilebench", NumExperiments: 50, Seed: 31})
	engine, err := spell.NewEngine([]*microarray.Dataset{ds})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Engine: engine, RawDatasets: []*microarray.Dataset{ds},
		CacheBytes: 32 << 20, RenderWorkers: 4, RenderQueue: 64,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if err := srv.WarmTrees(context.Background()); err != nil {
		b.Fatal(err)
	}
	nRows := ds.NumGenes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := (i * 7) % (nRows - 256)
		url := fmt.Sprintf("/api/heatmap?dataset=0&w=256&h=256&rows=%d:%d", from, from+256)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("tile = %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// ---------------------------------------------------------------------------
// F4c — the GOLEM enrichment half of the interactive drill-down path, at the
// acceptance scale from ISSUE 4: a 6k-gene background against a 2k-term
// ontology. BenchmarkF4_Enrich runs the bitset AND-popcount kernel,
// BenchmarkF4_EnrichReference the oracle's map-walk + per-call-Lgamma path,
// so the speedup is measurable within one binary (acceptance bar: >= 5x).
// BenchmarkF4_EnrichHTTP runs the daemon's full /api/enrich pipeline with a
// distinct selection per iteration (parse -> canonicalize -> cache miss ->
// kernel -> JSON), the enrichment analogue of BenchmarkF4_HeatmapTile.

type enrichBench struct {
	enricher   *golem.Enricher
	reference  *oracle.Terms
	background []string
	selection  []string
}

var (
	enrichBenchOnce sync.Once
	enrichBenchFix  *enrichBench
)

func getEnrichBench(b testing.TB) *enrichBench {
	enrichBenchOnce.Do(func() {
		const nTerms, nGenes = 2000, 6000
		names := make([]string, nTerms)
		for i := range names {
			names[i] = fmt.Sprintf("process %d", i)
		}
		onto, leafOf, err := ontology.Synthetic(ontology.SyntheticSpec{
			LeafNames: names, IntermediateLevels: 3, Seed: 23})
		if err != nil {
			panic(err)
		}
		ann := ontology.NewAnnotations()
		background := make([]string, 0, nGenes)
		for g := 0; g < nGenes; g++ {
			id := fmt.Sprintf("G%04d", g)
			background = append(background, id)
			ann.Add(id, leafOf[names[g%nTerms]])
		}
		enr, err := golem.NewEnricher(onto, ann, background)
		if err != nil {
			panic(err)
		}
		// A 500-gene selection striding the universe, touching many terms.
		selection := make([]string, 0, 500)
		for i := 0; i < 500; i++ {
			selection = append(selection, background[(i*11)%nGenes])
		}
		enrichBenchFix = &enrichBench{enricher: enr, reference: oracle.NewTerms(onto, ann, background),
			background: background, selection: selection}
	})
	return enrichBenchFix
}

func BenchmarkF4_Enrich(b *testing.B) {
	f := getEnrichBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.enricher.Analyze(f.selection, golem.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF4_EnrichReference runs the identical workload through
// oracle.Terms.Enrich (per-call sort.Strings, map-walk intersections,
// math.Lgamma hypergeometrics) so the bitset kernel's speedup is measurable
// within one binary: compare against BenchmarkF4_Enrich.
func BenchmarkF4_EnrichReference(b *testing.B) {
	f := getEnrichBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.reference.Enrich(f.selection, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF4_EnrichHTTP measures the daemon's full enrichment pipeline:
// each iteration requests a distinct 100-gene selection window, so every
// request walks parse -> canonicalize -> cache miss -> singleflight ->
// bitset kernel -> corrections -> JSON encode end to end.
func BenchmarkF4_EnrichHTTP(b *testing.B) {
	f := getEnrichBench(b)
	u := synth.NewUniverse(500, 10, 3)
	ds := u.Generate(synth.DatasetSpec{Name: "enrichbench", NumExperiments: 10, Seed: 5})
	engine, err := spell.NewEngine([]*microarray.Dataset{ds})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Engine: engine, Enricher: f.enricher, CacheBytes: 32 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	nGenes := len(f.background)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := (i * 7) % (nGenes - 100)
		url := "/api/enrich?genes=" + strings.Join(f.background[from:from+100], ",")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("enrich = %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkF4_SearchHTTP measures a single daemon's /api/search miss at
// paper scale: each iteration asks a distinct four-gene query, so every
// request walks parse -> canonicalize -> cache miss -> singleflight -> the
// coordinator over the daemon's one local member (scan, merge) -> JSON
// encode end to end, with nothing encoded between member and coordinator.
func BenchmarkF4_SearchHTTP(b *testing.B) {
	u := synth.NewUniverse(paperGenes, 20, 13)
	engine, err := spell.NewEngine(paperCompendium(u, 0.02))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{Engine: engine, CacheBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ids := u.GeneIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := (i * 7) % (len(ids) - 4)
		url := "/api/search?q=" + strings.Join(ids[from:from+4], ",")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Forestview-Cache") != "miss" {
			b.Fatalf("search = %d (%s): %s", rec.Code, rec.Header().Get("X-Forestview-Cache"), rec.Body.String())
		}
	}
}

// raceEnabled is set in a -race build (race_test.go).
var raceEnabled bool

// TestSearchMissAllocs bounds what a single daemon's /api/search miss
// allocates, request and recorder included, at BenchmarkF4_SearchHTTP's
// shape: 153 allocations when written, 213 before the dataset ranks were
// written without encoding/json and the ranking kept only its best genes;
// and 200 KB, 343 KB before the accumulator came from a pool. A JSON encode
// that goes back through reflection per dataset fails here, and so does a
// search that allocates its accumulator afresh. Under the race detector,
// whose sync.Pool drops items, it counts nothing.
func TestSearchMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	u := synth.NewUniverse(paperGenes, 20, 13)
	engine, err := spell.NewEngine(paperCompendium(u, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Engine: engine, CacheBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ids, i := u.GeneIDs(), 0
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if allocs := testing.AllocsPerRun(20, func() {
		i++
		url := "/api/search?q=" + strings.Join(ids[i*7:i*7+4], ",")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Forestview-Cache") != "miss" {
			t.Fatalf("search = %d (%s): %s", rec.Code, rec.Header().Get("X-Forestview-Cache"), rec.Body.String())
		}
	}); allocs > 160 {
		t.Errorf("a search miss made %.0f allocations, want <= 160", allocs)
	}
	runtime.ReadMemStats(&ms1)
	bytes := (ms1.TotalAlloc - ms0.TotalAlloc) / uint64(i)
	t.Logf("a search miss: %d bytes", bytes)
	if bytes > 200<<10 {
		t.Errorf("a search miss allocated %d bytes, want <= %d", bytes, 200<<10)
	}
}

// TestScatterBytes bounds what one scattered search allocates fleet-wide —
// the coordinator, four loopback shards at R=2 and the HTTP between them —
// at the paper compendium's shape: 300 KB, 1.84 MB before the accumulator
// columns came from a pool, the answers named the gene columns the
// coordinator holds, and a constant column crossed as one value. Under the
// race detector, whose sync.Pool drops items, it counts nothing.
func TestScatterBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	u := synth.NewUniverse(paperGenes, 20, 73)
	coord := newScatterBench(t, 4, 2, paperCompendium(u, 0.02), nil)
	query := u.ModuleGeneIDs(4)[:4]
	search := func() {
		res, meta, err := coord.SearchCtx(context.Background(), query, spell.Options{MaxGenes: 50})
		if err != nil || meta.Degraded || len(res.Genes) != 50 {
			t.Fatalf("scatter: %v, meta %+v", err, meta)
		}
	}
	search() // the first carries the gene columns, and opens the connections
	const n = 20
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for range n {
		search()
	}
	runtime.ReadMemStats(&ms1)
	bytes := (ms1.TotalAlloc - ms0.TotalAlloc) / n
	t.Logf("a scattered search: %d bytes", bytes)
	if bytes > 300<<10 {
		t.Errorf("a scattered search allocated %d bytes, want <= %d", bytes, 300<<10)
	}
}

// ---------------------------------------------------------------------------
// F5a — the sharded compendium (DESIGN.md §4): scatter a SPELL query over
// N loopback shard daemons and merge with global renormalization. One
// fixed 24-dataset compendium is split over the shards by the same
// rendezvous ownership the coordinator derives its scatter groups from,
// each shard running the real server role (shard endpoint, global index
// remap) with its scan bounded to ONE worker — loopback shards share this
// machine's cores, so an unbounded scan would fake the distributed scaling
// being measured. With the per-shard scan serialized, wall time per query
// approaches scan(24/N datasets) + scatter overhead: near-linear until
// overhead dominates (and only when the host has at least N cores). Compare
// Scatter{1,2,4}Shards sec/op.

// newScatterBench boots nShards shard daemons at replication repl over dss
// and returns the coordinator over them.
func newScatterBench(b testing.TB, nShards, repl int, dss []*microarray.Dataset, enricher *golem.Enricher) *shard.Coordinator {
	b.Helper()
	fleet, err := fleettest.New(fleettest.Spec[*server.Server]{
		Datasets: dss, Shards: nShards, Replication: repl,
		Coordinator: shard.Config{Deadline: time.Minute},
		Boot: func(m fleettest.Member) (*server.Server, error) {
			return server.New(server.Config{
				Engine: m.Engine, Enricher: enricher, ShardIndexes: m.Owned, ShardDatasetIDs: m.Catalog,
			})
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(fleet.Close)
	return fleet.Coordinator()
}

// benchScatter runs two fixtures: "complete" is scan-heavy on purpose —
// the per-query cost must be dominated by the dataset scan (nDatasets ×
// nGenes × nExp dot products), not by the fixed per-shard scatter overhead
// (HTTP + answer bodies + merge), or the benchmark would measure the overhead's
// replication — and "paper-6000x24/missing=0.02" is the compendium the
// fleet actually serves.
func benchScatter(b *testing.B, nShards int) {
	b.Run("complete", func(b *testing.B) {
		u := synth.NewUniverse(2000, 20, 73)
		dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
			NumDatasets: 24, MinExperiments: 80, MaxExperiments: 120,
			ActiveFraction: 0.4, Noise: 0.25, Seed: 74,
		})
		runScatter(b, newScatterBench(b, nShards, 1, dss, nil), u.ModuleGeneIDs(4)[:4])
	})
	b.Run("paper-6000x24/missing=0.02", func(b *testing.B) {
		u := synth.NewUniverse(paperGenes, 20, 73)
		runScatter(b, newScatterBench(b, nShards, 1, paperCompendium(u, 0.02), nil), u.ModuleGeneIDs(4)[:4])
	})
}

func runScatter(b *testing.B, coord *shard.Coordinator, query []string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, meta, err := coord.SearchCtx(context.Background(), query, spell.Options{MaxGenes: 50})
		if err != nil {
			b.Fatal(err)
		}
		if meta.Degraded || len(res.Genes) == 0 {
			b.Fatalf("bad scatter: meta %+v, %d genes", meta, len(res.Genes))
		}
	}
}

func BenchmarkF5_Scatter1Shards(b *testing.B) { benchScatter(b, 1) }
func BenchmarkF5_Scatter2Shards(b *testing.B) { benchScatter(b, 2) }
func BenchmarkF5_Scatter4Shards(b *testing.B) { benchScatter(b, 4) }

// F5b — what one scattered search pays outside the kernel, per ownership
// group and per merge, at the shape the replicated fleet serves: the paper
// compendium cut into 12 two-dataset groups (4 shards at R=2 have 12 ordered
// owner pairs), every group partial listing all 6,000 genes.

// paperGroups is the fixture: an engine over the first n two-dataset groups
// of the paper compendium, the function that scans groups [lo, hi) of it for
// one query in one pass, as a shard answers a request naming them, and the
// hop its answers take to a coordinator.
func paperGroups(b testing.TB, n int) (scan func(lo, hi int) *spell.Partial, h *wireHop) {
	b.Helper()
	u := synth.NewUniverse(paperGenes, 20, 73)
	engine, err := spell.NewEngine(paperCompendium(u, 0.02)[:2*n])
	if err != nil {
		b.Fatal(err)
	}
	return func(lo, hi int) *spell.Partial {
		subset := make([]int, 0, 2*(hi-lo))
		for di := 2 * lo; di < 2*hi; di++ {
			subset = append(subset, di)
		}
		p, err := engine.PartialSearchSubsetCtx(context.Background(), u.ModuleGeneIDs(4)[:4], subset, spell.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(p.IDs) != paperGenes || len(p.Datasets) != len(subset) {
			b.Fatalf("groups [%d,%d): partial lists %d genes, %d datasets", lo, hi, len(p.IDs), len(p.Datasets))
		}
		return p
	}, &wireHop{engine: engine}
}

// BenchmarkF5_GroupPartial: one 6,000-gene two-dataset group partial,
// computed. Read it beside BenchmarkF5_PartialWire, the same partial
// shipped: computing it costs less than moving it, which is why a drained
// shard hands its successors nothing (DESIGN.md §7).
func BenchmarkF5_GroupPartial(b *testing.B) {
	scan, _ := paperGroups(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan(0, 1).Release()
	}
}

// wireHop is the shard hop minus the socket, on the path the fleet takes:
// the shard's engine frames an answer into the shard's reused buffer, naming
// the gene columns the coordinator holds by digest, and the coordinator
// decodes it against what it held — after the first trip, which carries
// them, the pair is held.
type wireHop struct {
	engine *spell.Engine
	genes  spell.GeneColumns
	buf    []byte
}

// answerTrip is one search answer's trip over the hop.
func answerTrip(b testing.TB, h *wireHop, a *shard.SearchAnswer) (decoded shard.SearchAnswer, wireBytes int) {
	held := h.genes.Held()
	body, err := a.AppendFrames(h.buf[:0], func(b []byte, p *spell.Partial) ([]byte, error) {
		return h.engine.AppendPartial(b, p, held.Digests())
	})
	if err != nil {
		b.Fatal(err)
	}
	h.buf = body
	if err := decoded.UnmarshalShared(body, held); err != nil {
		b.Fatal(err)
	}
	return decoded, len(body)
}

// partialWireTrip is one group partial's trip over the hop: the answer body
// of one part carrying it.
func partialWireTrip(b testing.TB, h *wireHop, p *spell.Partial) (decoded spell.Partial, wireBytes int) {
	a, n := answerTrip(b, h, &shard.SearchAnswer{Parts: []shard.SearchPart{{Groups: []int{0}, Partial: p}}})
	return *a.Parts[0].Partial, n
}

// BenchmarkF5_PartialWire: the answer-body round trip of one 6,000-gene
// group partial, the decoded columns released as a coordinator does once it
// has merged (DESIGN.md §4 has the numbers).
func BenchmarkF5_PartialWire(b *testing.B) {
	scan, h := paperGroups(b, 1)
	p := scan(0, 1)
	back, _ := partialWireTrip(b, h, p) // the coordinator takes the gene columns in
	back.Release()
	_, n := partialWireTrip(b, h, p)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		back, _ := partialWireTrip(b, h, p)
		if len(back.IDs) != paperGenes {
			b.Fatalf("decoded %d genes", len(back.IDs))
		}
		back.Release()
	}
}

// BenchmarkF5_ShardBatch: what a shard does per batched request — one scan
// over the union of three two-dataset groups (what one of 4 shards at R=2 is
// picked for), framed as the answer body, and the answer decoded as the
// coordinator will. "lookup" is the
// step before it, the request's owner tuples resolved to groups: "table" as
// served, from the group table the shard keeps per topology, and
// "rendezvous" as it was done per request before there was one.
func BenchmarkF5_ShardBatch(b *testing.B) {
	b.Run("scan+frame", func(b *testing.B) {
		scan, h := paperGroups(b, 3)
		trip := func() shard.SearchAnswer {
			a := &shard.SearchAnswer{Parts: []shard.SearchPart{{Groups: []int{0, 1, 2}, Partial: scan(0, 3)}}}
			decoded, n := answerTrip(b, h, a)
			a.Release() // the shard's handler, once the frame is written
			b.SetBytes(int64(n))
			return decoded
		}
		if back := trip(); len(back.Parts) != 1 || len(back.Parts[0].Partial.IDs) != paperGenes || len(back.Parts[0].Partial.Datasets) != 6 {
			b.Fatalf("decoded answer: %+v", back.Parts)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			back := trip()
			back.Release() // the coordinator, once it has merged
		}
	})

	// The fleet-scatter shape: 24 datasets, 4 shards, R=2, a request for
	// three of the groups.
	names := make([]string, 24)
	for i := range names {
		names[i] = fmt.Sprintf("synthetic-%d (condition %d)", i, i%7)
	}
	fleet := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	request := shard.Groups(names, fleet, 2)[:3]
	b.Run("lookup/table", func(b *testing.B) {
		table := shard.NewGroupTable(names, fleet, 2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, owners := range request {
				if gi, ok := table.Lookup(owners); !ok || len(table.Members[gi]) == 0 {
					b.Fatal("group not found")
				}
			}
		}
	})
	b.Run("lookup/rendezvous", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, owners := range request {
				if len(shard.GroupIndexes(names, fleet, 2, owners)) == 0 {
					b.Fatal("group not found")
				}
			}
			_ = shard.Generation(fleet)
		}
	})
}

// benchMerge is the coordinator's serial step: n decoded partials — the
// paper compendium cut n ways — merged into the top 20.
func benchMerge(b *testing.B, n int) {
	scan, h := paperGroups(b, 12)
	parts := make([]spell.Partial, 0, n)
	for i := 0; i < n; i++ {
		back, _ := partialWireTrip(b, h, scan(i*12/n, (i+1)*12/n))
		parts = append(parts, back)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := spell.Merge(parts, spell.Options{MaxGenes: 20})
		if err != nil || len(res.Genes) != 20 {
			b.Fatalf("merge: %v", err)
		}
	}
}

// BenchmarkF5_Merge4: the batched fleet's merge — one frame from each of 4
// shards. BenchmarkF5_Merge12: one frame per ownership group, which is
// what a merge still sees when every group is served by a different answer
// (a 12-shard R=1 fleet; the unbatched fleet before it).
func BenchmarkF5_Merge4(b *testing.B)  { benchMerge(b, 4) }
func BenchmarkF5_Merge12(b *testing.B) { benchMerge(b, 12) }

// TestPartialWireAllocs bounds what the shard hop may allocate per group: a
// partial that goes back to one struct per gene, or a wire form that goes
// back through reflection, costs two allocations per gene and fails here.
func TestPartialWireAllocs(t *testing.T) {
	scan, h := paperGroups(t, 1)
	p := scan(0, 1)
	partialWireTrip(t, h, p) // size the buffer once, as a warm server has
	if allocs := testing.AllocsPerRun(10, func() { partialWireTrip(t, h, p) }); allocs > 30 {
		t.Errorf("one group partial's wire round trip made %.0f allocations, want <= 30", allocs)
	}
}

// ---------------------------------------------------------------------------
// F8 — distributed GOLEM (DESIGN.md §6): scatter an exact enrichment over N
// loopback shard daemons, each tallying its ownership-group word range of
// the F4c fixture's 6k-gene arena, and merge the integer counts into the
// full hypergeometric analysis. Unlike F5's dataset scan, the distributed
// tally is cheap next to the fixed per-group overhead (HTTP + bodies + the
// centralized p-value math in MergeCounts), so sec/op across shard counts
// tracks the scatter round-trip itself — this family gates regressions in
// the fleet enrichment path, it is not a linear-scaling demonstration.
// Every iteration pays the real tally (a shard keeps nothing); the
// coordinator's term-catalog fetch is cached per membership generation,
// amortized across iterations as in production.

func benchEnrichScatter(b *testing.B, nShards int) {
	// A small compendium supplies the shard role's dataset catalog (and
	// hence the ownership groups); the enrichment universe is the
	// independent 6k-gene F4c fixture, shared by every shard so the slice
	// fingerprints agree.
	f := getEnrichBench(b)
	dss, _ := synth.NewUniverse(100, 5, 91).GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 4 * nShards, MinExperiments: 4, MaxExperiments: 6, Seed: 92,
	})
	coord := newScatterBench(b, nShards, 1, dss, f.enricher)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, meta, err := coord.EnrichCtx(context.Background(), f.selection, golem.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if meta.Degraded || meta.GroupsOK != meta.GroupsTotal || len(res.Results) == 0 {
			b.Fatalf("bad enrich scatter: meta %+v, %d results", meta, len(res.Results))
		}
	}
}

func BenchmarkF8_EnrichScatter1Shards(b *testing.B) { benchEnrichScatter(b, 1) }
func BenchmarkF8_EnrichScatter2Shards(b *testing.B) { benchEnrichScatter(b, 2) }
func BenchmarkF8_EnrichScatter4Shards(b *testing.B) { benchEnrichScatter(b, 4) }

// ---------------------------------------------------------------------------
// F5 — Figure 5 (GOLEM): enrichment analysis and local-map layout.

func BenchmarkF5_GOLEMEnrichment(b *testing.B) {
	f := getFixture(b)
	selection := f.universe.ModuleGeneIDs(f.universe.ESRInduced)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.enricher.Analyze(selection, golem.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF5_GOLEMOntologyScale(b *testing.B) {
	for _, nTerms := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("terms-%d", nTerms), func(b *testing.B) {
			names := make([]string, nTerms)
			for i := range names {
				names[i] = fmt.Sprintf("process %d", i)
			}
			onto, leafOf, err := ontology.Synthetic(ontology.SyntheticSpec{
				LeafNames: names, IntermediateLevels: 3, Seed: 23})
			if err != nil {
				b.Fatal(err)
			}
			// 2000 genes spread across terms.
			ann := ontology.NewAnnotations()
			var background []string
			for g := 0; g < 2000; g++ {
				id := fmt.Sprintf("G%04d", g)
				background = append(background, id)
				ann.Add(id, leafOf[names[g%nTerms]])
			}
			enr, err := golem.NewEnricher(onto, ann, background)
			if err != nil {
				b.Fatal(err)
			}
			selection := background[:100]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := enr.Analyze(selection, golem.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkF5_GOLEMLocalMapLayout(b *testing.B) {
	f := getFixture(b)
	selection := f.universe.ModuleGeneIDs(f.universe.ESRInduced)
	results, err := f.enricher.Analyze(selection, golem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	focus := golem.TopTerms(results, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := golem.LocalMap(f.onto, focus, 1)
		golem.LayoutGraph(g, 4)
	}
}

func BenchmarkF5_GOLEMGraphRender(b *testing.B) {
	f := getFixture(b)
	selection := f.universe.ModuleGeneIDs(f.universe.ESRInduced)
	results, _ := f.enricher.Analyze(selection, golem.Options{})
	g := golem.LocalMap(f.onto, golem.TopTerms(results, 5), 1)
	lay := golem.LayoutGraph(g, 4)
	c := render.NewCanvas(1200, 600, color.RGBA{A: 255})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.RenderGOGraph(c, render.Rect{X: 0, Y: 0, W: 1200, H: 600}, g, lay, render.GOGraphOptions{})
	}
}

// ---------------------------------------------------------------------------
// F6 — Figure 6 (combined system): the full select → analyze → render loop.

func BenchmarkF6_CombinedPipeline(b *testing.B) {
	f := getFixture(b)
	engine, err := f.fv.SpellEngine()
	if err != nil {
		b.Fatal(err)
	}
	query := f.universe.ModuleGeneIDs(f.universe.ESRInduced)[:4]
	c := render.NewCanvas(2400, 800, color.RGBA{A: 255})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// SPELL reorders panes + selects top genes.
		if _, err := f.fv.ApplySpellSearch(engine, query, 20); err != nil {
			b.Fatal(err)
		}
		// GOLEM enriches the selection.
		results, err := f.fv.EnrichSelection(f.enricher, golem.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// Combined screen: ForestView scene plus the GO local map.
		f.fv.RenderScene(c, 2400, 800)
		g := golem.LocalMap(f.onto, golem.TopTerms(results, 3), 1)
		lay := golem.LayoutGraph(g, 2)
		render.RenderGOGraph(c, render.Rect{X: 1800, Y: 500, W: 580, H: 280}, g, lay, render.GOGraphOptions{})
	}
}

// ---------------------------------------------------------------------------
// C1 — §1 claim: display walls beat the desktop by ~two orders of magnitude.

func BenchmarkC1_PixelCapability(b *testing.B) {
	f := getFixture(b)
	scene := core.WallScene{FV: f.fv}
	desktop := wall.Desktop2MP()
	for _, c := range []struct {
		name string
		cfg  wall.Config
	}{
		{"desktop", desktop},
		{"princeton", wall.PrincetonWall()},
		{"large", wall.LargeWall()},
	} {
		b.Run(c.name, func(b *testing.B) {
			w, err := wall.NewWall(c.cfg, scene)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.RenderFrame()
			}
			b.StopTimer()
			b.ReportMetric(float64(c.cfg.Pixels())/1e6, "Mpix")
			b.ReportMetric(float64(c.cfg.Pixels())/float64(desktop.Pixels()), "x-desktop")
			b.ReportMetric(float64(c.cfg.Pixels())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpix/s")
		})
	}
}

// ---------------------------------------------------------------------------
// C2 — §4 case study: the full cross-dataset stress-response analysis.

func BenchmarkC2_CaseStudy(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Select a cluster in the nutrient pane, read its coherence from
		// the synchronized zoom views of both stress panes.
		if err := f.fv.SelectRegion(2, 100, 129); err != nil {
			b.Fatal(err)
		}
		for p := 0; p < 2; p++ {
			rows := f.fv.ZoomContent(p)
			if len(rows) == 0 {
				b.Fatal("no zoom content")
			}
		}
	}
}

// ---------------------------------------------------------------------------
// C3 — §4 claim: "launch over a dozen independent instances and continually
// cut and paste" vs one ForestView selection.

func BenchmarkC3_WorkflowComparison(b *testing.B) {
	u := synth.NewUniverse(400, 10, 19)
	for _, nDS := range []int{4, 13} {
		var cds []*core.ClusteredDataset
		for i := 0; i < nDS; i++ {
			ds := u.Generate(synth.DatasetSpec{
				Name: fmt.Sprintf("s%d", i), NumExperiments: 12, Seed: int64(i + 40)})
			cd, err := core.Cluster(ds, core.ClusterOptions{
				Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage})
			if err != nil {
				b.Fatal(err)
			}
			cds = append(cds, cd)
		}
		b.Run(fmt.Sprintf("baseline-%d-viewers", nDS), func(b *testing.B) {
			var steps int
			for i := 0; i < b.N; i++ {
				wf, _, err := baseline.CrossDatasetComparison(cds, 0, 0, 29)
				if err != nil {
					b.Fatal(err)
				}
				steps = len(wf.Steps)
			}
			b.ReportMetric(float64(steps), "user-steps")
		})
		b.Run(fmt.Sprintf("forestview-%d-panes", nDS), func(b *testing.B) {
			fv, err := core.New(cds)
			if err != nil {
				b.Fatal(err)
			}
			var steps int
			for i := 0; i < b.N; i++ {
				wf, err := baseline.ForestViewComparison(fv, 0, 0, 29)
				if err != nil {
					b.Fatal(err)
				}
				steps = len(wf.Steps)
			}
			b.ReportMetric(float64(steps), "user-steps")
		})
	}
}

// ---------------------------------------------------------------------------
// C4 — §1 scale claim: datasets of 6,000-50,000 genes × hundreds of
// conditions; millions of values.

func BenchmarkC4_DatasetScaleCluster(b *testing.B) {
	for _, nGenes := range []int{500, 1000, 2000} {
		b.Run(fmt.Sprintf("genes-%d", nGenes), func(b *testing.B) {
			u := synth.NewUniverse(nGenes, 20, 29)
			ds := u.Generate(synth.DatasetSpec{Name: "scale", NumExperiments: 50, Seed: 31})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.HierarchicalCtx(context.Background(), ds.Data, cluster.PearsonDist, cluster.AverageLinkage); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkC4_DatasetScaleRender(b *testing.B) {
	for _, nGenes := range []int{6000, 20000, 50000} {
		b.Run(fmt.Sprintf("genes-%d", nGenes), func(b *testing.B) {
			u := synth.NewUniverse(nGenes, 30, 37)
			ds := u.Generate(synth.DatasetSpec{Name: "scale", NumExperiments: 100, Seed: 41})
			cd, err := core.FromDataset(ds)
			if err != nil {
				b.Fatal(err)
			}
			fv, err := core.New([]*core.ClusteredDataset{cd})
			if err != nil {
				b.Fatal(err)
			}
			if err := fv.SelectRegion(0, 0, 49); err != nil {
				b.Fatal(err)
			}
			c := render.NewCanvas(1920, 1080, color.RGBA{A: 255})
			b.ReportMetric(float64(nGenes*100)/1e6, "Mvalues")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fv.RenderScene(c, 1920, 1080)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// F10 — the viewport pyramid (DESIGN.md §8): mipmapped tile levels and
// speculative prefetch. The pane is genome-scale
// (24k rows), built with FromDataset so the fixture skips the O(n²)
// clustering that F4 already measures.

var (
	pyrBenchOnce sync.Once
	pyrBenchCD   *core.ClusteredDataset
)

func getPyramidBenchPane(b testing.TB) *core.ClusteredDataset {
	pyrBenchOnce.Do(func() {
		u := synth.NewUniverse(24000, 30, 53)
		ds := u.Generate(synth.DatasetSpec{Name: "pyrbench", NumExperiments: 60, Seed: 54})
		cd, err := core.FromDataset(ds)
		if err != nil {
			panic(err)
		}
		pyrBenchCD = cd
	})
	return pyrBenchCD
}

// benchPyramidTile measures the daemon's full tile pipeline at one explicit
// pyramid level: each iteration requests a distinct 20480-row window (a
// zoomed-out pane overview) as a 192x32 strip. The cache budget is a token
// 16 bytes so every request renders — level 0 scans all 20480 raw rows,
// which is what HEAD paid for every such tile, while level 3 scans the
// 2560-row slab. The acceptance bar is L3 >= 4x faster than L0. The pyramid
// is warmed before the timer so the loop measures serving, not construction.
func benchPyramidTile(b *testing.B, level int) {
	cd := getPyramidBenchPane(b)
	u := synth.NewUniverse(200, 5, 55)
	ds := u.Generate(synth.DatasetSpec{Name: "pyrengine", NumExperiments: 8, Seed: 56})
	engine, err := spell.NewEngine([]*microarray.Dataset{ds})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Engine: engine, Datasets: []*core.ClusteredDataset{cd},
		CacheBytes: 16, RenderWorkers: 4, RenderQueue: 64,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	cd.Pyramid(core.PyramidOptions{})
	nRows := len(cd.DisplayOrder)
	const span = 20480
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := (i * 131) % (nRows - span)
		url := fmt.Sprintf("/api/heatmap?dataset=0&w=192&h=32&rows=%d:%d&level=%d", from, from+span, level)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("tile = %d: %s", rec.Code, rec.Body.String())
		}
	}
}

func BenchmarkF10_PyramidTileL0(b *testing.B) { benchPyramidTile(b, 0) }
func BenchmarkF10_PyramidTileL3(b *testing.B) { benchPyramidTile(b, 3) }

// BenchmarkF10_RenderSlabF64 isolates the raster half of the tile path over
// the full genome-scale level-0 slab (24000 rows x 60 cols into a 128px
// tile), apart from PNG encoding and HTTP.
func BenchmarkF10_RenderSlabF64(b *testing.B) {
	cd := getPyramidBenchPane(b)
	slab := cd.Pyramid(core.PyramidOptions{}).Level(0)
	c := render.NewCanvas(128, 128, color.RGBA{A: 255})
	r := render.Rect{X: 0, Y: 0, W: 128, H: 128}
	opt := render.HeatmapOptions{Limit: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.RenderHeatmap(c, r, slab.F64, opt)
	}
}

// tileShapes are the slabs a 256x256 tile renders from under level=auto at
// paper scale: a zoomed-in window (cells larger than a pixel) and two
// global-regime windows with 1-2 slab rows per pixel row, narrow and wide.
var tileShapes = []struct {
	name   string
	nR, nC int
}{{"zoom-100x24", 100, 24}, {"global-300x12", 300, 12}, {"global-400x40", 400, 40}}

// tileBenchRows is an nR x nC slab of unit-normal values with 2% missing
// cells, the benchmark fixture's rate.
func tileBenchRows(nR, nC int) [][]float64 {
	rng := rand.New(rand.NewSource(int64(nR*1000 + nC)))
	rows := make([][]float64, nR)
	for i := range rows {
		rows[i] = make([]float64, nC)
		for c := range rows[i] {
			rows[i][c] = rng.NormFloat64()
			if rng.Float64() < 0.02 {
				rows[i][c] = math.NaN()
			}
		}
	}
	return rows
}

// drawBenchTile rasterizes rows the way /api/heatmap's defaults do.
func drawBenchTile(rows [][]float64) *render.Canvas {
	c := render.NewCanvas(256, 256, color.RGBA{A: 255})
	render.RenderHeatmap(c, render.Rect{W: 256, H: 256}, rows,
		render.HeatmapOptions{ColorMap: render.GreenBlackRed, Limit: 2, CellBorder: true})
	return c
}

// BenchmarkF10_TileRaster is the raster half of one cold tile, canvas
// allocation included; BenchmarkF10_TileEncodePNG the encode half, with the
// file size as png_bytes. Together they are what the repo benchmark's
// tile-cold workload blames as render.heatmap_ms + render.png_ms.
func BenchmarkF10_TileRaster(b *testing.B) {
	for _, sh := range tileShapes {
		rows := tileBenchRows(sh.nR, sh.nC)
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				drawBenchTile(rows)
			}
		})
	}
}

func BenchmarkF10_TileEncodePNG(b *testing.B) {
	for _, sh := range tileShapes {
		c := drawBenchTile(tileBenchRows(sh.nR, sh.nC))
		b.Run(sh.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := c.EncodePNG(&buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(buf.Len()), "png_bytes")
		})
	}
}

// BenchmarkF10_TilePNG is a cold tile as the daemon renders it: runs
// straight to PNG, no canvas — the work TileRaster and TileEncodePNG split
// between them on the canvas path, with the same file (png_bytes). The
// plain shapes are the matrix alone; strips-6000x24 is a
// tree=40&atree=48 tile of a paper-scale pane.
func BenchmarkF10_TilePNG(b *testing.B) {
	opt := render.HeatmapOptions{ColorMap: render.GreenBlackRed, Limit: 2, CellBorder: true}
	run := func(b *testing.B, rows [][]float64, opt render.HeatmapOptions, strips ...render.Dendrogram) {
		var png []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if png, err = render.HeatmapPNG(256, 256, color.RGBA{A: 255}, rows, opt, strips...); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(png)), "png_bytes")
	}
	for _, sh := range tileShapes {
		rows := tileBenchRows(sh.nR, sh.nC)
		b.Run(sh.name, func(b *testing.B) { run(b, rows, opt) })
	}
	b.Run("strips-6000x24", func(b *testing.B) {
		paperStripOnce.Do(func() { paperStrip = newStripTile(b, paperGenes) })
		run(b, paperStrip.rows, paperStrip.opt, paperStrip.strips...)
	})
}

var (
	paperStripOnce sync.Once
	paperStrip     stripTile
)

// stripTile is a 256×256 tile with a 40-pixel gene-tree strip and a
// 48-pixel array-tree strip of a whole pane, as the daemon renders
// tree=40&atree=48 at the auto level.
type stripTile struct {
	rows   [][]float64
	opt    render.HeatmapOptions
	strips []render.Dendrogram
}

// newStripTile clusters an nGenes × 24 synthetic pane, arrays too, and
// lays out its strip tile.
func newStripTile(tb testing.TB, nGenes int) stripTile {
	u := synth.NewUniverse(nGenes, 20, 60)
	ds := u.Generate(synth.DatasetSpec{Name: "strips", NumExperiments: 24, MissingRate: 0.02, Seed: 61})
	cd, err := core.Cluster(ds, core.ClusterOptions{ClusterArrays: true})
	if err != nil {
		tb.Fatal(err)
	}
	lvl := 0
	for levels := core.NumPyramidLevels(nGenes); lvl+1 < levels && nGenes>>(lvl+1) >= 256; lvl++ {
	}
	fg := color.RGBA{R: 180, G: 180, B: 180, A: 255}
	return stripTile{
		rows: cd.Pyramid(core.PyramidOptions{}).Level(lvl).F64,
		opt:  render.HeatmapOptions{ColorMap: render.GreenBlackRed, Limit: 2, CellBorder: true, ColOrder: cd.ArrayOrder},
		strips: []render.Dendrogram{
			{Tree: cd.ArrayTree, Orientation: render.AboveColumns, Size: 48, Color: fg},
			{Tree: cd.GeneTree, Orientation: render.LeftOfRows, Size: 40, Color: fg},
		},
	}
}

// TestHeatmapPNGAllocs: a plain tile on the runs path allocates the file
// it returns, and past that only when a pooled encoder is new or grows.
// Under the race detector, whose sync.Pool drops items, it counts nothing.
func TestHeatmapPNGAllocs(t *testing.T) {
	if raceEnabled {
		return
	}
	opt := render.HeatmapOptions{ColorMap: render.GreenBlackRed, Limit: 2, CellBorder: true}
	for _, sh := range tileShapes {
		rows := tileBenchRows(sh.nR, sh.nC)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := render.HeatmapPNG(256, 256, color.RGBA{A: 255}, rows, opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Fatalf("a 256x256 %s tile made %.1f allocations, want <= 4", sh.name, allocs)
		}
	}
}

// TestHeatmapPNGStripAllocs: a tile with both dendrogram strips allocates
// no more than a plain one — the file, and a pooled encoder's growth.
func TestHeatmapPNGStripAllocs(t *testing.T) {
	if raceEnabled {
		return
	}
	tile := newStripTile(t, 600)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := render.HeatmapPNG(256, 256, color.RGBA{A: 255}, tile.rows, tile.opt, tile.strips...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("a 256x256 tree=40&atree=48 tile made %.1f allocations, want <= 4", allocs)
	}
}

// TestTileRenderAllocs: a cold tile costs a dozen allocations (the canvas,
// the column spans, the file). A rasterizer that boxes one colour per
// pixel into a color.Color costs 65,000; this bound catches it.
func TestTileRenderAllocs(t *testing.T) {
	rows := tileBenchRows(400, 40)
	allocs := testing.AllocsPerRun(20, func() {
		var file bytes.Buffer
		if err := drawBenchTile(rows).EncodePNG(&file); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("one 256x256 global-regime tile made %.0f allocations, want <= 64", allocs)
	}
}

func BenchmarkC4_PCLParse(b *testing.B) {
	u := synth.NewUniverse(6000, 20, 43)
	ds := u.Generate(synth.DatasetSpec{Name: "parse", NumExperiments: 100, Seed: 47})
	var buf bytes.Buffer
	if err := microarray.WritePCL(&buf, ds); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := microarray.ReadPCL(bytes.NewReader(data), "parse"); err != nil {
			b.Fatal(err)
		}
	}
}
