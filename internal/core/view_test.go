package core

import (
	"fmt"
	"image/color"
	"math/rand"
	"testing"

	"forestview/internal/cluster"
	"forestview/internal/golem"
	"forestview/internal/microarray"
	"forestview/internal/render"
	"forestview/internal/synth"
	"forestview/internal/wall"
)

func TestRenderSceneDrawsAllPanes(t *testing.T) {
	_, fv := buildFixture(t)
	_ = fv.SelectRegion(0, 0, 9)
	c := render.NewCanvas(600, 300, color.RGBA{A: 255})
	fv.RenderScene(c, 600, 300)
	// Each pane has a border; check that pixels at the three pane title
	// rows are not all background.
	bg := color.RGBA{R: 12, G: 12, B: 16, A: 255}
	nonBG := 0
	for x := 0; x < 600; x += 5 {
		for y := 0; y < 300; y += 5 {
			if c.At(x, y) != bg {
				nonBG++
			}
		}
	}
	if nonBG < 500 {
		t.Fatalf("scene mostly empty: %d non-background samples", nonBG)
	}
}

func TestRenderSceneEmptySelection(t *testing.T) {
	_, fv := buildFixture(t)
	c := render.NewCanvas(300, 200, color.RGBA{A: 255})
	fv.RenderScene(c, 300, 200) // must not panic without a selection
}

func TestRenderSceneTinyCanvas(t *testing.T) {
	_, fv := buildFixture(t)
	c := render.NewCanvas(10, 10, color.RGBA{A: 255})
	fv.RenderScene(c, 10, 10)
	c2 := render.NewCanvas(0, 0, color.RGBA{A: 255})
	fv.RenderScene(c2, 0, 0)
}

// The wall-tile invariant: rendering the scene through tile viewports and
// compositing equals rendering the scene once at full size.
func TestWallSceneTilingLossless(t *testing.T) {
	_, fv := buildFixture(t)
	_ = fv.SelectRegion(0, 0, 9)
	cfg := wall.Config{TilesX: 3, TilesY: 2, TileW: 120, TileH: 80}
	w, err := wall.NewWall(cfg, WallScene{FV: fv})
	if err != nil {
		t.Fatal(err)
	}
	w.RenderFrame()
	comp := w.Composite()

	ref := render.NewCanvas(cfg.WallWidth(), cfg.WallHeight(), color.RGBA{A: 255})
	fv.RenderScene(ref, cfg.WallWidth(), cfg.WallHeight())

	for y := 0; y < ref.Height(); y++ {
		for x := 0; x < ref.Width(); x++ {
			if comp.At(x, y) != ref.At(x, y) {
				t.Fatalf("pixel (%d,%d): tiled %v vs direct %v", x, y, comp.At(x, y), ref.At(x, y))
			}
		}
	}
}

// scenePane renders a 400×360 scene of one pane: 40 genes × 12 arrays of
// random values, clustered with opt, its first selected rows selected. It
// returns the pane, the canvas and the pane's body as renderPane lays it
// out: title above, footer below.
func scenePane(t *testing.T, opt ClusterOptions, selected int) (*ClusteredDataset, *render.Canvas, render.Rect) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	exps := make([]string, 12)
	for e := range exps {
		exps[e] = fmt.Sprintf("E%d", e)
	}
	ds := microarray.NewDataset("scene", exps)
	for g := 0; g < 40; g++ {
		vals := make([]float64, len(exps))
		for e := range vals {
			vals[e] = rng.NormFloat64()
		}
		if err := ds.AddGene(microarray.Gene{ID: fmt.Sprintf("G%02d", g)}, vals); err != nil {
			t.Fatal(err)
		}
	}
	cd, err := Cluster(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	fv, err := New([]*ClusteredDataset{cd})
	if err != nil {
		t.Fatal(err)
	}
	if selected > 0 {
		if err := fv.SelectRegion(0, 0, selected-1); err != nil {
			t.Fatal(err)
		}
	}
	const w, h = 400, 360
	c := render.NewCanvas(w, h, color.RGBA{A: 255})
	fv.RenderScene(c, w, h)
	titleH := render.TextHeight(titleScale) + 4
	pane := render.Rect{X: paneMargin, Y: paneMargin, W: w - 2*paneMargin, H: h - 2*paneMargin}
	return cd, c, render.Rect{X: pane.X + 2, Y: pane.Y + titleH, W: pane.W - 4, H: pane.H - titleH - footerH}
}

// TestSceneGeneTreeOverItsRows: in a pane whose gene tree is oriented,
// each leaf's leg, the k-th from the top being LeafOrder()[k]'s, sits in
// the global view's band of that leaf's own row.
func TestSceneGeneTreeOverItsRows(t *testing.T) {
	cd, c, body := scenePane(t, ClusterOptions{OptimizeOrder: true}, 0)
	var legs []int // at the strip's leaf edge, top down
	for y := body.Y; y < body.Y+body.H; y++ {
		if c.At(body.X+geneTreeW-1, y) == treeFG {
			legs = append(legs, y)
		}
	}
	if len(legs) != cd.Data.NumGenes() {
		t.Fatalf("%d legs at the gene tree's leaf edge, want %d", len(legs), cd.Data.NumGenes())
	}
	prefs, missed := DefaultPrefs(), 0
	for k, y := range legs {
		leaf := cd.GeneTree.LeafOrder()[k]
		if c.At(body.X+geneTreeW+2, y) != prefs.ColorMap.Map(cd.Data.Value(leaf, 0), prefs.ContrastLimit) {
			missed++
		}
	}
	if missed > 0 {
		t.Fatalf("%d of %d gene leaves' legs are not beside their own rows", missed, len(legs))
	}
}

// TestSceneArrayTreeOverItsColumns: with labels shown (the default), each
// array leaf's leg, the k-th from the left being LeafOrder()[k]'s, sits in
// the zoom view's band of that leaf's own column.
func TestSceneArrayTreeOverItsColumns(t *testing.T) {
	cd, c, body := scenePane(t, ClusterOptions{ClusterArrays: true}, 10)
	zx := body.X + geneTreeW + 2 + int(float64(body.W)*DefaultPrefs().GlobalViewFrac) + 4
	var legs []int // at the strip's leaf edge, left to right
	for x := zx; x < body.X+body.W; x++ {
		if c.At(x, body.Y+arrayTreeH-1) == treeFG {
			legs = append(legs, x)
		}
	}
	if len(legs) != cd.Data.NumExperiments() {
		t.Fatalf("%d legs at the array tree's leaf edge, want %d", len(legs), cd.Data.NumExperiments())
	}
	// The first zoom row is the first selected gene, DisplayOrder[0]; the
	// middle of its band is clear of the cell borders.
	y := body.Y + arrayTreeH + 2 + (body.H-arrayTreeH-2)/20
	prefs, missed := DefaultPrefs(), 0
	for k, x := range legs {
		leaf := cd.ArrayTree.LeafOrder()[k]
		if c.At(x, y) != prefs.ColorMap.Map(cd.Data.Value(cd.DisplayOrder[0], leaf), prefs.ContrastLimit) {
			missed++
		}
	}
	if missed > 0 {
		t.Fatalf("%d of %d array leaves' legs are not over their own columns", missed, len(legs))
	}
}

func TestRenderSceneRespectsPaneOrder(t *testing.T) {
	_, fv := buildFixture(t)
	c1 := render.NewCanvas(600, 200, color.RGBA{A: 255})
	fv.RenderScene(c1, 600, 200)
	fv.OrderPanesBy(map[string]float64{"gamma": 9})
	c2 := render.NewCanvas(600, 200, color.RGBA{A: 255})
	fv.RenderScene(c2, 600, 200)
	// The scene must change when pane order changes.
	same := true
	for y := 0; y < 200 && same; y++ {
		for x := 0; x < 600; x++ {
			if c1.At(x, y) != c2.At(x, y) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("pane reordering did not change the rendered scene")
	}
}

func TestApplySpellSearchIntegration(t *testing.T) {
	u := synth.NewUniverse(150, 8, 21)
	mod := 3
	others := []int{4, 5, 6, 7}
	specs := []synth.DatasetSpec{
		{Name: "informative", NumExperiments: 20, ActiveModules: []int{mod}, Noise: 0.2, Seed: 23},
		{Name: "other", NumExperiments: 18, ActiveModules: others, Noise: 0.2, Seed: 29},
	}
	var cds []*ClusteredDataset
	for _, s := range specs {
		cd, err := Cluster(u.Generate(s), ClusterOptions{
			Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage})
		if err != nil {
			t.Fatal(err)
		}
		cds = append(cds, cd)
	}
	fv, err := New(cds)
	if err != nil {
		t.Fatal(err)
	}
	query := u.ModuleGeneIDs(mod)[:3]
	res, err := fv.ApplySpellSearch(nil, query, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The informative dataset must now lead the pane order.
	order := fv.PaneOrder()
	if fv.Pane(order[0]).DS.Data.Name != "informative" {
		t.Fatalf("pane order after SPELL = %v", order)
	}
	// The selection holds the top genes, including the query.
	sel := fv.Selection()
	if sel.Len() != 10 {
		t.Fatalf("selection = %d", sel.Len())
	}
	hits := 0
	for _, q := range query {
		if sel.set[q] {
			hits++
		}
	}
	if hits < 2 {
		t.Fatalf("query genes in selection = %d/3", hits)
	}
	if len(res.Result.Datasets) != 2 {
		t.Fatalf("dataset ranks = %d", len(res.Result.Datasets))
	}
}

func TestEnrichSelectionIntegration(t *testing.T) {
	u, fv := buildFixture(t)
	// Build ontology + annotations from universe ground truth.
	onto, ann, err := u.Ontology(31)
	if err != nil {
		t.Fatal(err)
	}
	enr, err := golem.NewEnricher(onto, ann, u.GeneIDs())
	if err != nil {
		t.Fatal(err)
	}
	// Select the ESR-induced module genes: its term must be top-enriched.
	ids := u.ModuleGeneIDs(u.ESRInduced)
	fv.SelectList(ids, "ESR module")
	results, err := fv.EnrichSelection(enr, golem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no enrichment results")
	}
	wantTerm := ann.TermsOf(u.ModuleGeneIDs(u.ESRInduced)[0])[0] // the module's leaf
	if results[0].TermID != wantTerm {
		t.Fatalf("top term = %s (%s), want %s", results[0].TermID, results[0].TermName, wantTerm)
	}
	if results[0].PValue > 1e-6 {
		t.Fatalf("planted enrichment p = %v", results[0].PValue)
	}

	// No selection -> error.
	fv.ClearSelection()
	if _, err := fv.EnrichSelection(enr, golem.Options{}); err == nil {
		t.Fatal("enrichment without selection should error")
	}
}

func TestConcurrentRenderAndMutate(t *testing.T) {
	// The wall renders while the UI mutates; this must be race-free (run
	// with -race in CI).
	_, fv := buildFixture(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			_ = fv.SelectRegion(i%3, 0, 10+i)
			fv.SetSynchronized(i%2 == 0)
			fv.Scroll(0, 1)
			fv.OrderPanesBy(map[string]float64{"alpha": float64(i)})
		}
	}()
	c := render.NewCanvas(300, 200, color.RGBA{A: 255})
	for i := 0; i < 20; i++ {
		fv.RenderScene(c, 300, 200)
	}
	<-done
}
