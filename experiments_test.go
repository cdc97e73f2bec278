package forestview

// Integration tests, one per experiment row of DESIGN.md §9. Each
// verifies the qualitative "shape" the paper reports — who wins, what
// stays coherent, what falls apart — on the planted synthetic data.

import (
	"bytes"
	"image/color"
	"math"
	"sort"
	"strings"
	"testing"

	"forestview/internal/baseline"
	"forestview/internal/cluster"
	"forestview/internal/core"
	"forestview/internal/golem"
	"forestview/internal/microarray"
	"forestview/internal/render"
	"forestview/internal/spell"
	"forestview/internal/stats"
	"forestview/internal/synth"
	"forestview/internal/wall"
)

// TestF1_ArchitectureIntegration exercises every layer of the Figure-1
// architecture in one flow: datasets (files) → merged dataset interface →
// analysis → user interface operations → synchronized gene visualization.
func TestF1_ArchitectureIntegration(t *testing.T) {
	u := synth.NewUniverse(300, 10, 51)
	raw := synth.StressCaseCollection(u, 600)[:3]

	// Layer 1: datasets, including a PCL round trip (the cdt/pcl files of
	// the paper's architecture diagram).
	var datasets []*microarray.Dataset
	for _, ds := range raw {
		var buf bytes.Buffer
		if err := microarray.WritePCL(&buf, ds); err != nil {
			t.Fatal(err)
		}
		back, err := microarray.ReadPCL(&buf, ds.Name)
		if err != nil {
			t.Fatal(err)
		}
		datasets = append(datasets, back)
	}

	// Layer 2: clustering + ForestView construction (merged interface).
	var cds []*core.ClusteredDataset
	for _, ds := range datasets {
		cd, err := core.Cluster(ds, core.ClusterOptions{
			Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage, ClusterArrays: true})
		if err != nil {
			t.Fatal(err)
		}
		cds = append(cds, cd)
	}
	fv, err := core.New(cds)
	if err != nil {
		t.Fatal(err)
	}
	m := fv.Merged()
	if m.NumDatasets() != 3 || m.NumGenes() != 300 {
		t.Fatalf("merged interface: %d datasets, %d genes", m.NumDatasets(), m.NumGenes())
	}

	// Layer 3: analysis — find genes by annotation, order datasets.
	n, err := fv.SelectQuery("stress response induced")
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("annotation query found nothing")
	}
	fv.OrderPanesBy(map[string]float64{datasets[2].Name: 1})
	if fv.Pane(fv.PaneOrder()[0]).DS.Data.Name != datasets[2].Name {
		t.Fatal("dataset ordering failed")
	}

	// Layer 4: synchronized visualization — same genes, same rows.
	for p := 1; p < fv.NumPanes(); p++ {
		a, b := fv.ZoomContent(0), fv.ZoomContent(p)
		if len(a) != len(b) {
			t.Fatal("synchronized panes disagree on row count")
		}
		for i := range a {
			if a[i].GeneID != b[i].GeneID {
				t.Fatal("synchronized rows misaligned")
			}
		}
	}

	// Layer 5: UI exports.
	var list bytes.Buffer
	if err := fv.ExportGeneList(&list); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(list.String(), "#") {
		t.Fatal("export missing header")
	}
	var merged bytes.Buffer
	if err := fv.ExportMerged(&merged); err != nil {
		t.Fatal(err)
	}
	exp, err := microarray.ReadPCL(&merged, "m")
	if err != nil {
		t.Fatal(err)
	}
	wantCols := datasets[0].NumExperiments() + datasets[1].NumExperiments() + datasets[2].NumExperiments()
	if exp.NumExperiments() != wantCols {
		t.Fatalf("merged export columns = %d, want %d", exp.NumExperiments(), wantCols)
	}

	// Layer 6: the scene renders.
	c := render.NewCanvas(900, 400, color.RGBA{A: 255})
	fv.RenderScene(c, 900, 400)
}

// TestF2_SynchronizedPaneRendering verifies the Figure-2 view: a selected
// gene subset renders at identical row positions across all panes.
func TestF2_SynchronizedPaneRendering(t *testing.T) {
	u := synth.NewUniverse(200, 8, 53)
	raw := synth.StressCaseCollection(u, 700)[:3]
	var cds []*core.ClusteredDataset
	for _, ds := range raw {
		cd, err := core.Cluster(ds, core.ClusterOptions{
			Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage})
		if err != nil {
			t.Fatal(err)
		}
		cds = append(cds, cd)
	}
	fv, err := core.New(cds)
	if err != nil {
		t.Fatal(err)
	}
	if err := fv.SelectRegion(0, 10, 29); err != nil {
		t.Fatal(err)
	}
	// Synchronized: every pane shows 20 rows in identical gene order.
	for p := 0; p < 3; p++ {
		zc := fv.ZoomContent(p)
		if len(zc) != 20 {
			t.Fatalf("pane %d zoom rows = %d", p, len(zc))
		}
	}
	// Unsynchronized: each pane's native order — generally different.
	fv.SetSynchronized(false)
	orders := make([][]string, 3)
	for p := 0; p < 3; p++ {
		for _, zr := range fv.ZoomContent(p) {
			orders[p] = append(orders[p], zr.GeneID)
		}
	}
	diff := false
	for p := 1; p < 3; p++ {
		for i := range orders[p] {
			if orders[p][i] != orders[0][i] {
				diff = true
			}
		}
	}
	if !diff {
		t.Log("warning: unsynchronized orders coincided (possible but unlikely)")
	}
	// Render both modes to PNG-sized canvases without panic.
	c := render.NewCanvas(1200, 500, color.RGBA{A: 255})
	fv.RenderScene(c, 1200, 500)
	fv.SetSynchronized(true)
	fv.RenderScene(c, 1200, 500)
}

// TestF3_WallDeployment verifies the Figure-3 deployment path: the
// ForestView scene renders identically drawn directly or tiled across the
// wall, every pixel, so a viewport or blit off by one at any tile's last
// row or column shows.
func TestF3_WallDeployment(t *testing.T) {
	u := synth.NewUniverse(150, 8, 59)
	raw := synth.StressCaseCollection(u, 800)[:2]
	var cds []*core.ClusteredDataset
	for _, ds := range raw {
		cd, err := core.Cluster(ds, core.ClusterOptions{
			Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage})
		if err != nil {
			t.Fatal(err)
		}
		cds = append(cds, cd)
	}
	fv, err := core.New(cds)
	if err != nil {
		t.Fatal(err)
	}
	_ = fv.SelectRegion(0, 0, 19)
	scene := core.WallScene{FV: fv}
	cfg := wall.Config{TilesX: 2, TilesY: 2, TileW: 160, TileH: 120}

	ref := render.NewCanvas(cfg.WallWidth(), cfg.WallHeight(), color.RGBA{A: 255})
	fv.RenderScene(ref, cfg.WallWidth(), cfg.WallHeight())

	lw, err := wall.NewWall(cfg, scene)
	if err != nil {
		t.Fatal(err)
	}
	lw.RenderFrame()
	tiled := lw.Composite()

	for y := 0; y < ref.Height(); y++ {
		for x := 0; x < ref.Width(); x++ {
			if tiled.At(x, y) != ref.At(x, y) {
				t.Fatalf("tile mismatch at (%d,%d)", x, y)
			}
		}
	}
}

// TestF4_SPELLSearchQuality verifies the Figure-4 result shape: SPELL ranks
// the datasets where the query is coherent first and recovers the planted
// module with high precision.
func TestF4_SPELLSearchQuality(t *testing.T) {
	u := synth.NewUniverse(500, 12, 61)
	mod := 3
	other := []int{4, 5, 6, 7, 8}
	dss := []*microarray.Dataset{
		u.Generate(synth.DatasetSpec{Name: "informative-1", NumExperiments: 24,
			ActiveModules: []int{mod}, Noise: 0.2, Seed: 63}),
		u.Generate(synth.DatasetSpec{Name: "informative-2", NumExperiments: 20,
			ActiveModules: []int{mod, other[0]}, Noise: 0.2, Seed: 67}),
		u.Generate(synth.DatasetSpec{Name: "irrelevant-1", NumExperiments: 22,
			ActiveModules: other, Noise: 0.2, Seed: 71}),
		u.Generate(synth.DatasetSpec{Name: "irrelevant-2", NumExperiments: 18,
			ActiveModules: other[1:], Noise: 0.2, Seed: 73}),
	}
	engine, err := spell.NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	ids := u.ModuleGeneIDs(mod)
	res, err := engine.Search(ids[:4], spell.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Shape 1: both informative datasets rank above both irrelevant ones.
	rank := make(map[string]int)
	for i, d := range res.Datasets {
		rank[d.Name] = i
	}
	if rank["informative-1"] > 1 || rank["informative-2"] > 1 {
		t.Fatalf("informative datasets not on top: %v", rank)
	}
	// Shape 2: planted-module recovery precision.
	relevant := make(map[string]bool)
	for _, id := range ids {
		relevant[id] = true
	}
	k := 10
	if rest := len(ids) - 4; rest < k {
		k = rest
	}
	if p := res.PrecisionAtK(k, relevant); p < 0.7 {
		t.Fatalf("precision@%d = %v, want >= 0.7", k, p)
	}
}

// TestF5_GOLEMEnrichmentShape verifies the Figure-5 result: the planted
// module's term tops the enrichment list, ancestors are significant but
// weaker, and the local map contains the path to the root.
func TestF5_GOLEMEnrichmentShape(t *testing.T) {
	u := synth.NewUniverse(600, 12, 79)
	onto, ann, err := u.Ontology(83)
	if err != nil {
		t.Fatal(err)
	}
	enr, err := golem.NewEnricher(onto, ann, u.GeneIDs())
	if err != nil {
		t.Fatal(err)
	}
	mod := 4
	results, err := enr.Analyze(u.ModuleGeneIDs(mod), golem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := ann.TermsOf(u.ModuleGeneIDs(mod)[0])[0] // the module's leaf
	if results[0].TermID != want {
		t.Fatalf("top term = %s, want %s", results[0].TermID, want)
	}
	if results[0].Bonferroni > 1e-6 {
		t.Fatalf("planted term corrected p = %v", results[0].Bonferroni)
	}
	// Local map around the top terms reaches the root.
	g := golem.LocalMap(onto, golem.TopTerms(results, 3), 1)
	root := onto.Roots()[0]
	if !g.Contains(root) {
		t.Fatal("local map misses the ontology root")
	}
	lay := golem.LayoutGraph(g, 4)
	if lay.Pos[root].Layer != 0 {
		t.Fatal("root not on layer 0")
	}
	c := render.NewCanvas(800, 400, color.RGBA{A: 255})
	render.RenderGOGraph(c, render.Rect{X: 0, Y: 0, W: 800, H: 400}, g, lay, render.GOGraphOptions{})
}

// TestF6_CombinedPipeline drives the Figure-6 composite: a selection flows
// to SPELL (reordering panes) and GOLEM (enrichment), and everything
// renders into one combined screen.
func TestF6_CombinedPipeline(t *testing.T) {
	u := synth.NewUniverse(400, 10, 89)
	col := synth.StressCaseCollection(u, 900)
	var cds []*core.ClusteredDataset
	for _, ds := range col {
		cd, err := core.Cluster(ds, core.ClusterOptions{
			Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage})
		if err != nil {
			t.Fatal(err)
		}
		cds = append(cds, cd)
	}
	fv, err := core.New(cds)
	if err != nil {
		t.Fatal(err)
	}
	onto, ann, err := u.Ontology(97)
	if err != nil {
		t.Fatal(err)
	}
	enr, err := golem.NewEnricher(onto, ann, u.GeneIDs())
	if err != nil {
		t.Fatal(err)
	}

	// SPELL: query with ESR genes; the stress datasets must surface.
	query := u.ModuleGeneIDs(u.ESRInduced)[:4]
	sres, err := fv.ApplySpellSearch(nil, query, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.SelectedGenes) != 25 {
		t.Fatalf("selected = %d", len(sres.SelectedGenes))
	}

	// GOLEM on the SPELL selection: the ESR term must dominate.
	results, err := fv.EnrichSelection(enr, golem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	esrTerm := ann.TermsOf(u.ModuleGeneIDs(u.ESRInduced)[0])[0]
	found := false
	for _, r := range results[:minInt(3, len(results))] {
		if r.TermID == esrTerm {
			found = true
		}
	}
	if !found {
		t.Fatalf("ESR term not in top enrichments: %v", golem.TopTerms(results, 3))
	}

	// Combined screen: ForestView + GO map on one canvas (Figure 6).
	c := render.NewCanvas(1800, 700, color.RGBA{A: 255})
	fv.RenderScene(c, 1400, 700)
	g := golem.LocalMap(onto, golem.TopTerms(results, 3), 1)
	lay := golem.LayoutGraph(g, 4)
	render.RenderGOGraph(c, render.Rect{X: 1410, Y: 10, W: 380, H: 680}, g, lay, render.GOGraphOptions{})
}

// TestC1_PixelCapabilityClaim checks the §1 claim: wall configurations
// reach ~two orders of magnitude more pixels than the 2 MP desktop.
func TestC1_PixelCapabilityClaim(t *testing.T) {
	d := float64(wall.Desktop2MP().Pixels())
	p := float64(wall.PrincetonWall().Pixels())
	l := float64(wall.LargeWall().Pixels())
	if p/d < 5 {
		t.Fatalf("princeton/desktop = %.1f, want ~10x", p/d)
	}
	if l/d < 50 || l/d > 200 {
		t.Fatalf("large/desktop = %.1f, want ~100x", l/d)
	}
}

// TestC2_StressCaseStudy is the scripted Section-4 case study with
// assertions (the stresscase example, minus prose).
func TestC2_StressCaseStudy(t *testing.T) {
	u := synth.NewUniverse(800, 16, 7)
	col := synth.StressCaseCollection(u, 500)
	var cds []*core.ClusteredDataset
	for _, ds := range col {
		cd, err := core.Cluster(ds, core.ClusterOptions{
			Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage})
		if err != nil {
			t.Fatal(err)
		}
		cds = append(cds, cd)
	}
	fv, err := core.New(cds)
	if err != nil {
		t.Fatal(err)
	}

	coherence := func(pane int) float64 {
		cd := fv.Pane(pane).DS
		var rows [][]float64
		for _, zr := range fv.ZoomContent(pane) {
			if zr.Row >= 0 {
				rows = append(rows, cd.Data.Row(zr.Row))
			}
			if len(rows) == 10 {
				break
			}
		}
		return stats.MeanPairwiseCorrelation(rows)
	}

	// Scan candidate windows of the nutrient pane (index 2).
	const win = 30
	nd := cds[2]
	rows := nd.RowsInDisplayOrder()
	type cand struct {
		start             int
		homeCoh, crossCoh float64
		esrFraction       float64
	}
	esr := make(map[string]bool)
	for _, id := range u.ModuleGeneIDs(u.ESRInduced) {
		esr[id] = true
	}
	for _, id := range u.ModuleGeneIDs(u.ESRRepressed) {
		esr[id] = true
	}
	var cands []cand
	for s := 0; s+win <= len(rows); s += win {
		if err := fv.SelectRegion(2, s, s+win-1); err != nil {
			t.Fatal(err)
		}
		home := coherence(2)
		cross := (coherence(0) + coherence(1)) / 2
		hits := 0
		for _, id := range fv.Selection().IDs {
			if esr[id] {
				hits++
			}
		}
		cands = append(cands, cand{
			start: s, homeCoh: home, crossCoh: cross,
			esrFraction: float64(hits) / win,
		})
	}
	// Shape 1: there exists a tight home cluster that stays coherent under
	// stress — and it is the ESR.
	sort.Slice(cands, func(a, b int) bool { return cands[a].crossCoh > cands[b].crossCoh })
	best := cands[0]
	if best.crossCoh < 0.4 {
		t.Fatalf("no cross-study coherent cluster found (best %.2f)", best.crossCoh)
	}
	if best.esrFraction < 0.6 {
		t.Fatalf("cross-study cluster only %.0f%% ESR", best.esrFraction*100)
	}
	// Shape 2: tight home clusters that are NOT ESR fall apart in stress.
	foundSpecific := false
	for _, c := range cands {
		if c.homeCoh > 0.6 && c.esrFraction < 0.2 {
			foundSpecific = true
			if math.Abs(c.crossCoh) > 0.45 {
				t.Fatalf("nutrient-specific cluster too coherent under stress: %.2f", c.crossCoh)
			}
		}
	}
	if !foundSpecific {
		t.Log("note: no strongly nutrient-specific window at this stride (non-fatal)")
	}
}

// TestC3_WorkflowComparison verifies the §4 workflow claim: the baseline's
// manual steps grow linearly with dataset count, ForestView's stay
// constant.
func TestC3_WorkflowComparison(t *testing.T) {
	u := synth.NewUniverse(200, 8, 101)
	build := func(n int) []*core.ClusteredDataset {
		var out []*core.ClusteredDataset
		for i := 0; i < n; i++ {
			ds := u.Generate(synth.DatasetSpec{
				Name: "w" + string(rune('A'+i)), NumExperiments: 10, Seed: int64(103 + i)})
			cd, err := core.Cluster(ds, core.ClusterOptions{
				Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, cd)
		}
		return out
	}
	// "Over a dozen independent instances": 13 viewers.
	cds := build(13)
	wfBase, _, err := baseline.CrossDatasetComparison(cds, 0, 0, 19)
	if err != nil {
		t.Fatal(err)
	}
	fv, err := core.New(cds)
	if err != nil {
		t.Fatal(err)
	}
	wfFV, err := baseline.ForestViewComparison(fv, 0, 0, 19)
	if err != nil {
		t.Fatal(err)
	}
	if len(wfBase.Steps) < 10*len(wfFV.Steps) {
		t.Fatalf("baseline %d steps vs ForestView %d: want >= 10x gap",
			len(wfBase.Steps), len(wfFV.Steps))
	}
	if wfBase.Transfers != 12 {
		t.Fatalf("baseline transfers = %d, want 12", wfBase.Transfers)
	}
	if wfFV.Transfers != 0 {
		t.Fatal("ForestView should need no transfers")
	}
}

// TestC4_PaperScaleLoad loads a paper-scale dataset (50,000 genes ×
// hundreds of columns — "millions of pieces of information") through the
// full model and renders it.
func TestC4_PaperScaleLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale load skipped in -short")
	}
	u := synth.NewUniverse(50000, 40, 107)
	ds := u.Generate(synth.DatasetSpec{Name: "huge", NumExperiments: 200, Seed: 109})
	if ds.NumGenes() != 50000 || ds.NumExperiments() != 200 {
		t.Fatalf("dims = %dx%d", ds.NumGenes(), ds.NumExperiments())
	}
	// 10M values.
	cd, err := core.FromDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	fv, err := core.New([]*core.ClusteredDataset{cd})
	if err != nil {
		t.Fatal(err)
	}
	if err := fv.SelectRegion(0, 0, 99); err != nil {
		t.Fatal(err)
	}
	c := render.NewCanvas(1920, 1080, color.RGBA{A: 255})
	fv.RenderScene(c, 1920, 1080)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
