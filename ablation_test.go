package forestview

// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// reports a quality metric next to the timing so the benefit of the design
// is visible in the bench output, not just the cost.

import (
	"context"
	"fmt"
	"image/color"
	"testing"

	"forestview/internal/cluster"
	"forestview/internal/microarray"
	"forestview/internal/render"
	"forestview/internal/spell"
	"forestview/internal/synth"
)

// newBenchCanvas allocates the full-HD canvas the rendering ablations draw
// into.
func newBenchCanvas() *render.Canvas {
	return render.NewCanvas(1920, 1080, color.RGBA{A: 255})
}

// AblationLeafOrdering: naive DFS leaf order vs the Gruvaeus-Wainer
// orientation pass. Metric: mean similarity of adjacent display rows.
func BenchmarkAblation_LeafOrdering(b *testing.B) {
	u := synth.NewUniverse(400, 12, 201)
	ds := u.Generate(synth.DatasetSpec{Name: "ord", NumExperiments: 24, Seed: 203})
	tree, err := cluster.HierarchicalCtx(context.Background(), ds.Data, cluster.PearsonDist, cluster.AverageLinkage)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("naive-dfs", func(b *testing.B) {
		var q float64
		for i := 0; i < b.N; i++ {
			order := tree.LeafOrder()
			q = cluster.OrderQuality(ds.Data, order)
		}
		b.ReportMetric(q, "adjacent-similarity")
	})
	b.Run("gruvaeus-wainer", func(b *testing.B) {
		var q float64
		for i := 0; i < b.N; i++ {
			oriented, err := cluster.Orient(tree, ds.Data)
			if err != nil {
				b.Fatal(err)
			}
			q = cluster.OrderQuality(ds.Data, oriented.LeafOrder())
		}
		b.ReportMetric(q, "adjacent-similarity")
	})
}

// AblationSPELLWeighting: SPELL's coherence-based dataset weighting vs the
// naive uniform average. Metric: precision@10 of planted-module recovery.
func BenchmarkAblation_SPELLWeighting(b *testing.B) {
	u := synth.NewUniverse(600, 14, 207)
	mod := 4
	others := []int{5, 6, 7, 8, 9, 10}
	// A compendium where most datasets are uninformative about the module:
	// the regime that separates the two weighting schemes. One informative
	// dataset, five noise-only ones.
	compendium := []*microarray.Dataset{
		u.Generate(synth.DatasetSpec{Name: "informative", NumExperiments: 24,
			ActiveModules: []int{mod}, Noise: 0.2, Seed: 221}),
	}
	for i := 0; i < 5; i++ {
		compendium = append(compendium, u.Generate(synth.DatasetSpec{
			Name: fmt.Sprintf("noise-%d", i), NumExperiments: 20,
			ActiveModules: others, Noise: 0.3, Seed: int64(223 + i)}))
	}
	engine, err := spell.NewEngine(compendium)
	if err != nil {
		b.Fatal(err)
	}
	query := u.ModuleGeneIDs(mod)[:4]
	relevant := make(map[string]bool)
	for _, id := range u.ModuleGeneIDs(mod) {
		relevant[id] = true
	}
	for _, mode := range []struct {
		name    string
		uniform bool
	}{
		{"spell-weighted", false},
		{"uniform-baseline", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var p float64
			for i := 0; i < b.N; i++ {
				res, err := engine.Search(query, spell.Options{UniformWeights: mode.uniform})
				if err != nil {
					b.Fatal(err)
				}
				p = res.PrecisionAtK(10, relevant)
			}
			b.ReportMetric(p, "precision@10")
		})
	}
}

// AblationLinkage: clustering quality (silhouette at the true module
// count) across the three linkage rules.
func BenchmarkAblation_Linkage(b *testing.B) {
	u := synth.NewUniverse(200, 8, 211)
	ds := u.Generate(synth.DatasetSpec{Name: "lk", NumExperiments: 20, Noise: 0.3, Seed: 213})
	for _, lk := range []cluster.Linkage{cluster.AverageLinkage, cluster.CompleteLinkage, cluster.SingleLinkage} {
		b.Run(lk.String(), func(b *testing.B) {
			var sil float64
			for i := 0; i < b.N; i++ {
				tree, err := cluster.HierarchicalCtx(context.Background(), ds.Data, cluster.PearsonDist, lk)
				if err != nil {
					b.Fatal(err)
				}
				assign, err := tree.Cut(8)
				if err != nil {
					b.Fatal(err)
				}
				sil = cluster.Silhouette(ds.Data, assign)
			}
			b.ReportMetric(sil, "silhouette")
		})
	}
}

// AblationSyncViews: the cost of synchronized (placeholder-aligned) zoom
// views vs unsynchronized native-order views during scene rendering.
func BenchmarkAblation_SyncViews(b *testing.B) {
	f := getFixture(b)
	if err := f.fv.SelectRegion(0, 0, 99); err != nil {
		b.Fatal(err)
	}
	c := newBenchCanvas()
	for _, mode := range []struct {
		name string
		sync bool
	}{
		{"synchronized", true},
		{"unsynchronized", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			f.fv.SetSynchronized(mode.sync)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.fv.RenderScene(c, 1920, 1080)
			}
		})
	}
	f.fv.SetSynchronized(true)
}
