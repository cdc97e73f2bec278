package spell

import (
	"math"
	"testing"

	"forestview/internal/microarray"
	"forestview/internal/synth"
)

// fixtureCompendium builds a small compendium where module 2's genes are
// co-expressed only in datasets 0 and 1; dataset 2 has module 2 inactive.
func fixtureCompendium(t *testing.T) (*synth.Universe, []*microarray.Dataset, []string) {
	t.Helper()
	u := synth.NewUniverse(300, 10, 71)
	mod := 2
	if len(u.Modules[mod].Genes) < 8 {
		// Find a module with enough genes.
		for i := 2; i < len(u.Modules); i++ {
			if len(u.Modules[i].Genes) >= 8 {
				mod = i
				break
			}
		}
	}
	others := []int{}
	for i := 2; i < len(u.Modules); i++ {
		if i != mod {
			others = append(others, i)
		}
	}
	dss := []*microarray.Dataset{
		u.Generate(synth.DatasetSpec{Name: "informative-A", NumExperiments: 25,
			ActiveModules: []int{mod}, Noise: 0.2, Seed: 73}),
		u.Generate(synth.DatasetSpec{Name: "informative-B", NumExperiments: 20,
			ActiveModules: []int{mod, others[0]}, Noise: 0.2, Seed: 79}),
		u.Generate(synth.DatasetSpec{Name: "uninformative", NumExperiments: 22,
			ActiveModules: others, Noise: 0.2, Seed: 83}),
	}
	ids := u.ModuleGeneIDs(mod)
	return u, dss, ids
}

func TestNewEngineErrors(t *testing.T) {
	if _, err := NewEngine(nil); err == nil {
		t.Fatal("empty compendium should error")
	}
}

func TestSearchErrors(t *testing.T) {
	_, dss, _ := fixtureCompendium(t)
	e, err := NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search(nil, Options{}); err == nil {
		t.Fatal("empty query should error")
	}
	if _, err := e.Search([]string{"NOT-A-GENE"}, Options{}); err == nil {
		t.Fatal("unknown query genes should error")
	}
}

func TestSearchRanksInformativeDatasetsFirst(t *testing.T) {
	_, dss, moduleIDs := fixtureCompendium(t)
	e, err := NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	query := moduleIDs[:4]
	res, err := e.Search(query, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 3 {
		t.Fatalf("dataset ranks = %d", len(res.Datasets))
	}
	// The uninformative dataset must rank last with (near-)zero weight.
	last := res.Datasets[2]
	if last.Name != "uninformative" {
		t.Fatalf("dataset ranking = %v, %v, %v",
			res.Datasets[0].Name, res.Datasets[1].Name, res.Datasets[2].Name)
	}
	if last.Weight > res.Datasets[0].Weight/2 {
		t.Fatalf("uninformative weight %v too close to top weight %v",
			last.Weight, res.Datasets[0].Weight)
	}
	// Weights sum to 1.
	sum := 0.0
	for _, d := range res.Datasets {
		sum += d.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestSearchRecoversPlantedModule(t *testing.T) {
	_, dss, moduleIDs := fixtureCompendium(t)
	e, _ := NewEngine(dss)
	query := moduleIDs[:4]
	res, err := e.Search(query, Options{})
	if err != nil {
		t.Fatal(err)
	}
	relevant := make(map[string]bool)
	for _, id := range moduleIDs {
		relevant[id] = true
	}
	rest := len(moduleIDs) - len(query)
	k := rest
	if k > 10 {
		k = 10
	}
	p := res.PrecisionAtK(k, relevant)
	if p < 0.7 {
		t.Fatalf("precision@%d = %v, want >= 0.7 (module recovery)", k, p)
	}
}

func TestSearchQueryInclusion(t *testing.T) {
	_, dss, moduleIDs := fixtureCompendium(t)
	e, _ := NewEngine(dss)
	query := moduleIDs[:3]

	excl, err := e.Search(query, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range excl.Genes {
		for _, q := range query {
			if g.ID == q {
				t.Fatalf("query gene %s leaked into results", q)
			}
		}
	}

	incl, err := e.Search(query, Options{IncludeQuery: true})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, g := range incl.Genes {
		if g.IsQuery {
			found++
		}
	}
	if found != len(query) {
		t.Fatalf("query genes in results = %d, want %d", found, len(query))
	}
	// Query genes should rank very high: they correlate perfectly with
	// themselves.
	topSet := make(map[string]bool)
	for _, g := range incl.Genes[:len(query)*5] {
		topSet[g.ID] = true
	}
	hits := 0
	for _, q := range query {
		if topSet[q] {
			hits++
		}
	}
	if hits < len(query)-1 {
		t.Fatalf("only %d/%d query genes near the top", hits, len(query))
	}
}

func TestSearchMaxGenes(t *testing.T) {
	_, dss, moduleIDs := fixtureCompendium(t)
	e, _ := NewEngine(dss)
	res, err := e.Search(moduleIDs[:3], Options{MaxGenes: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Genes) != 7 {
		t.Fatalf("genes = %d, want 7", len(res.Genes))
	}
}

func TestSearchSingleGeneQueryFallsBack(t *testing.T) {
	_, dss, moduleIDs := fixtureCompendium(t)
	e, _ := NewEngine(dss)
	res, err := e.Search(moduleIDs[:1], Options{})
	if err != nil {
		t.Fatal(err)
	}
	// With a single query gene, coherence is undefined everywhere and
	// weights must fall back to uniform over datasets measuring the gene.
	for _, d := range res.Datasets {
		if math.Abs(d.Weight-1.0/3.0) > 1e-9 {
			t.Fatalf("uniform fallback weight = %v", d.Weight)
		}
	}
	if len(res.Genes) == 0 {
		t.Fatal("single-gene query should still rank genes")
	}
}

func TestSearchGeneScoresOrdered(t *testing.T) {
	_, dss, moduleIDs := fixtureCompendium(t)
	e, _ := NewEngine(dss)
	res, err := e.Search(moduleIDs[:4], Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Genes); i++ {
		if res.Genes[i].Score > res.Genes[i-1].Score+1e-12 {
			t.Fatalf("gene ranking not sorted at %d: %v > %v",
				i, res.Genes[i].Score, res.Genes[i-1].Score)
		}
	}
}

func TestSearchDeterministicAcrossParallelism(t *testing.T) {
	_, dss, moduleIDs := fixtureCompendium(t)
	e, _ := NewEngine(dss)
	query := moduleIDs[:4]
	seq, err := e.Search(query, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := e.Search(query, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	assertSameJSON(t, par, seq)
}

func TestTopGeneIDs(t *testing.T) {
	_, dss, moduleIDs := fixtureCompendium(t)
	e, _ := NewEngine(dss)
	res, _ := e.Search(moduleIDs[:3], Options{})
	top := res.TopGeneIDs(5)
	if len(top) != 5 {
		t.Fatalf("top = %v", top)
	}
	all := res.TopGeneIDs(1 << 20)
	if len(all) != len(res.Genes) {
		t.Fatalf("overlong request should clamp: %d vs %d", len(all), len(res.Genes))
	}
}

func TestPrecisionAtKEdgeCases(t *testing.T) {
	r := &Result{}
	if !math.IsNaN(r.PrecisionAtK(5, nil)) {
		t.Fatal("empty result precision should be NaN")
	}
	r = &Result{Genes: []GeneRank{{ID: "A"}, {ID: "B"}}}
	if p := r.PrecisionAtK(10, map[string]bool{"A": true}); p != 0.5 {
		t.Fatalf("clamped precision = %v, want 0.5", p)
	}
	if !math.IsNaN(r.PrecisionAtK(0, nil)) {
		t.Fatal("k=0 should be NaN")
	}
}

func TestUniformWeightsAblation(t *testing.T) {
	// With uniform weights every dataset measuring the query gets equal
	// weight, informative or not; SPELL weighting must concentrate on the
	// informative ones.
	_, dss, moduleIDs := fixtureCompendium(t)
	e, _ := NewEngine(dss)
	query := moduleIDs[:4]

	weighted, err := e.Search(query, Options{})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := e.Search(query, Options{UniformWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	// Uniform mode: all three datasets weigh 1/3.
	for _, d := range uniform.Datasets {
		if math.Abs(d.Weight-1.0/3.0) > 1e-9 {
			t.Fatalf("uniform weight = %v", d.Weight)
		}
	}
	// Weighted mode: the top dataset outweighs the uniform share.
	if weighted.Datasets[0].Weight <= 1.0/3.0 {
		t.Fatalf("weighted top weight = %v, want > 1/3", weighted.Datasets[0].Weight)
	}
	// Recovery quality: weighted >= uniform on the planted module.
	relevant := make(map[string]bool)
	for _, id := range moduleIDs {
		relevant[id] = true
	}
	k := 10
	pw := weighted.PrecisionAtK(k, relevant)
	pu := uniform.PrecisionAtK(k, relevant)
	if pw+1e-9 < pu {
		t.Fatalf("weighted precision %v < uniform %v", pw, pu)
	}
}

func TestEngineCounts(t *testing.T) {
	_, dss, _ := fixtureCompendium(t)
	e, _ := NewEngine(dss)
	if e.NumDatasets() != 3 {
		t.Fatalf("NumDatasets = %d", e.NumDatasets())
	}
	if e.NumGenes() != 300 {
		t.Fatalf("NumGenes = %d", e.NumGenes())
	}
}

func TestSearchPartialGeneUniverse(t *testing.T) {
	// Datasets measuring disjoint gene subsets: scores must still combine.
	u := synth.NewUniverse(100, 6, 91)
	full := u.Generate(synth.DatasetSpec{Name: "full", NumExperiments: 15, Seed: 92})
	// Build a half dataset by subsetting rows 0..49.
	rows := make([]int, 50)
	for i := range rows {
		rows[i] = i
	}
	half := full.Subset("half", rows)
	e, err := NewEngine([]*microarray.Dataset{full, half})
	if err != nil {
		t.Fatal(err)
	}
	// Query with genes only in the full dataset.
	q := []string{u.Genes[60].ID, u.Genes[61].ID}
	res, err := e.Search(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The half dataset cannot measure the query; its weight must be 0 or
	// the uniform fallback must exclude it.
	for _, d := range res.Datasets {
		if d.Name == "half" && d.QueryPresent != 0 {
			t.Fatalf("half dataset claims %d query genes", d.QueryPresent)
		}
	}
}
