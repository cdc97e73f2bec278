package spell

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"forestview/internal/microarray"
	"forestview/internal/oracle"
	"forestview/internal/stats"
	"forestview/internal/synth"
)

// referenceSearch is oracle.Search over dss as a Result, with the query
// canonicalized as Search canonicalizes it.
func referenceSearch(dss []*microarray.Dataset, query []string, opt Options) (*Result, error) {
	r, err := oracle.Search(dss, CanonicalQuery(query), oracle.SearchOptions{
		MaxGenes: opt.MaxGenes, IncludeQuery: opt.IncludeQuery, UniformWeights: opt.UniformWeights})
	if err != nil {
		return nil, err
	}
	res := &Result{Query: r.Query}
	for _, d := range r.Datasets {
		res.Datasets = append(res.Datasets, DatasetRank(d))
	}
	for _, g := range r.Genes {
		res.Genes = append(res.Genes, GeneRank(g))
	}
	return res, nil
}

// zscores is stats.ZScoresInto into a new slice.
func zscores(xs []float64) []float64 {
	out := make([]float64, len(xs))
	stats.ZScoresInto(out, xs)
	return out
}

// sameResult reports whether two search results encode to the same JSON
// bytes. It compares what the encoder reads — every field, in order, floats
// by their bits — which is that and a little more (NaN payloads), at a
// fraction of an encode's cost.
func sameResult(got, want *Result) bool {
	bits := math.Float64bits
	return slices.Equal(got.Query, want.Query) &&
		slices.EqualFunc(got.Datasets, want.Datasets, func(g, w DatasetRank) bool {
			return g.Index == w.Index && g.Name == w.Name && g.QueryPresent == w.QueryPresent &&
				bits(g.Weight) == bits(w.Weight) && bits(g.QueryCoherence) == bits(w.QueryCoherence)
		}) &&
		slices.EqualFunc(got.Genes, want.Genes, func(g, w GeneRank) bool {
			return g.ID == w.ID && g.Name == w.Name && g.IsQuery == w.IsQuery && bits(g.Score) == bits(w.Score)
		})
}

// assertSameJSON fails t unless sameResult.
func assertSameJSON(t *testing.T, got, want *Result) {
	t.Helper()
	if !sameResult(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		t.Fatalf("results differ:\n got %s\nwant %s", g, w)
	}
}

// assertResultsMatch checks that two search results agree to tol: identical
// dataset weights/coherence by dataset index, the same set of scored genes,
// matching scores, and a rank order that only differs where scores tie
// within tol.
func assertResultsMatch(t *testing.T, got, want *Result, tol float64) {
	t.Helper()
	if len(got.Datasets) != len(want.Datasets) {
		t.Fatalf("dataset count %d vs %d", len(got.Datasets), len(want.Datasets))
	}
	gotW := make(map[int]DatasetRank)
	for _, d := range got.Datasets {
		gotW[d.Index] = d
	}
	for _, w := range want.Datasets {
		g := gotW[w.Index]
		if math.Abs(g.Weight-w.Weight) > tol {
			t.Fatalf("dataset %d weight %v vs %v", w.Index, g.Weight, w.Weight)
		}
		bothNaN := math.IsNaN(g.QueryCoherence) && math.IsNaN(w.QueryCoherence)
		if !bothNaN && math.Abs(g.QueryCoherence-w.QueryCoherence) > tol {
			t.Fatalf("dataset %d coherence %v vs %v", w.Index, g.QueryCoherence, w.QueryCoherence)
		}
		if g.QueryPresent != w.QueryPresent {
			t.Fatalf("dataset %d present %d vs %d", w.Index, g.QueryPresent, w.QueryPresent)
		}
	}
	if len(got.Genes) != len(want.Genes) {
		t.Fatalf("gene count %d vs %d", len(got.Genes), len(want.Genes))
	}
	gotScore := make(map[string]float64, len(got.Genes))
	for _, g := range got.Genes {
		gotScore[g.ID] = g.Score
	}
	for _, w := range want.Genes {
		g, ok := gotScore[w.ID]
		if !ok {
			t.Fatalf("gene %s missing from dense result", w.ID)
		}
		if math.Abs(g-w.Score) > tol {
			t.Fatalf("gene %s score %v vs %v (diff %g)", w.ID, g, w.Score, math.Abs(g-w.Score))
		}
	}
	// Rank order: positions may only differ where the scores tie within tol.
	for i := range want.Genes {
		if got.Genes[i].ID != want.Genes[i].ID &&
			math.Abs(got.Genes[i].Score-want.Genes[i].Score) > tol {
			t.Fatalf("rank %d: %s(%v) vs %s(%v)", i,
				got.Genes[i].ID, got.Genes[i].Score,
				want.Genes[i].ID, want.Genes[i].Score)
		}
	}
}

// TestDenseMatchesReference is the golden-parity proof for the dense
// kernel: on randomized synthetic compendia — including rows with missing
// values, which exercise the NaN-pairwise fallback — Search must agree
// with the naive oracle.Search to 1e-12, for both the SPELL
// weighting and the UniformWeights ablation.
func TestDenseMatchesReference(t *testing.T) {
	for _, seed := range []int64{3, 29, 137} {
		for _, missing := range []float64{0, 0.05} {
			name := fmt.Sprintf("seed-%d-missing-%g", seed, missing)
			t.Run(name, func(t *testing.T) {
				u := synth.NewUniverse(220, 9, seed)
				dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
					NumDatasets: 6, MinExperiments: 8, MaxExperiments: 20,
					ActiveFraction: 0.5, Noise: 0.3, MissingRate: missing,
					Seed: seed + 1,
				})
				e, err := NewEngine(dss)
				if err != nil {
					t.Fatal(err)
				}
				query := u.ModuleGeneIDs(3)[:5]
				for _, opt := range []Options{
					{},
					{IncludeQuery: true},
					{UniformWeights: true},
					{MaxGenes: 25, IncludeQuery: true},
					{Parallelism: 1},
				} {
					dense, err := e.Search(query, opt)
					if err != nil {
						t.Fatalf("dense %+v: %v", opt, err)
					}
					ref, err := referenceSearch(dss, query, opt)
					if err != nil {
						t.Fatalf("reference %+v: %v", opt, err)
					}
					assertResultsMatch(t, dense, ref, 1e-12)
				}
			})
		}
	}
}

// TestDenseMatchesReferenceDuplicateGeneIDs: the supported readers reject
// datasets carrying the same gene ID twice, but a hand-built Dataset can.
// Both scorers must resolve the collision the same way (the row the index
// points at — the last — scores; earlier rows are ignored) so parity
// holds even on malformed input.
func TestDenseMatchesReferenceDuplicateGeneIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const nExp = 12
	row := func() []float64 {
		r := make([]float64, nExp)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		return r
	}
	mk := func(name string, ids ...string) *microarray.Dataset {
		ds := &microarray.Dataset{Name: name, Experiments: make([]string, nExp)}
		for _, id := range ids {
			ds.Genes = append(ds.Genes, microarray.Gene{ID: id, Name: id})
			ds.Data = append(ds.Data, row())
		}
		return ds
	}
	// G3 appears twice in the first dataset with different values.
	dss := []*microarray.Dataset{
		mk("dup", "G0", "G1", "G2", "G3", "G3", "G4", "G5"),
		mk("clean", "G0", "G1", "G2", "G3", "G4", "G6"),
	}
	e, err := NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range [][]string{{"G0", "G1"}, {"G3", "G4", "G0"}} {
		dense, err := e.Search(query, Options{IncludeQuery: true})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := referenceSearch(dss, query, Options{IncludeQuery: true})
		if err != nil {
			t.Fatal(err)
		}
		assertResultsMatch(t, dense, ref, 1e-12)
		// The duplicated gene must appear exactly once in the ranking.
		seen := 0
		for _, g := range dense.Genes {
			if g.ID == "G3" {
				seen++
			}
		}
		if seen != 1 {
			t.Fatalf("query %v: G3 ranked %d times", query, seen)
		}
	}
}

// TestSearchDuplicateQueryInvariance is the regression test for the
// duplicate-query rank-inflation bug on the library entry point: a
// duplicated query gene used to add Pearson(row, row) = 1 pairs to a
// dataset's coherence, inflating its weight by FisherZ(1-ε) ≈ 8.06 per
// duplicate pair. Search([A, A, B]) must now return identical dataset
// weights and gene ranks to Search([A, B]).
func TestSearchDuplicateQueryInvariance(t *testing.T) {
	u := synth.NewUniverse(200, 8, 53)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 4, MinExperiments: 10, MaxExperiments: 16,
		ActiveFraction: 0.5, Noise: 0.25, Seed: 54,
	})
	e, err := NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	ids := u.ModuleGeneIDs(2)
	a, b := ids[0], ids[1]

	clean, err := e.Search([]string{a, b}, Options{IncludeQuery: true})
	if err != nil {
		t.Fatal(err)
	}
	dup, err := e.Search([]string{a, a, b}, Options{IncludeQuery: true})
	if err != nil {
		t.Fatal(err)
	}
	// Identical, not merely close: dedupe happens before any arithmetic.
	for i := range clean.Datasets {
		if clean.Datasets[i] != dup.Datasets[i] {
			t.Fatalf("dataset rank %d differs: %+v vs %+v",
				i, dup.Datasets[i], clean.Datasets[i])
		}
	}
	if len(clean.Genes) != len(dup.Genes) {
		t.Fatalf("gene counts differ: %d vs %d", len(dup.Genes), len(clean.Genes))
	}
	for i := range clean.Genes {
		if clean.Genes[i] != dup.Genes[i] {
			t.Fatalf("gene rank %d differs: %+v vs %+v",
				i, dup.Genes[i], clean.Genes[i])
		}
	}
	// Whitespace padding and ordering are equally invisible.
	padded, err := e.Search([]string{" " + b + " ", a, a}, Options{IncludeQuery: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.Genes {
		if clean.Genes[i] != padded.Genes[i] {
			t.Fatalf("padded query changed rank %d", i)
		}
	}
}

// TestSearchConcurrentHammer drives many concurrent searches with varied
// options against one engine; run with -race it proves the per-worker
// accumulator design shares nothing mutable. Results must also be
// deterministic across the concurrent callers.
func TestSearchConcurrentHammer(t *testing.T) {
	u := synth.NewUniverse(150, 6, 61)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 5, MinExperiments: 8, MaxExperiments: 14,
		ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.03, Seed: 62,
	})
	e, err := NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]string{
		u.ModuleGeneIDs(1)[:3],
		u.ModuleGeneIDs(2)[:4],
		u.ModuleGeneIDs(3)[:2],
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		want[i], err = e.Search(q, Options{IncludeQuery: true})
		if err != nil {
			t.Fatal(err)
		}
	}

	workers := max(8, 4*runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				qi := (w + iter) % len(queries)
				opt := Options{
					IncludeQuery:   true,
					Parallelism:    1 + (w+iter)%4,
					UniformWeights: false,
				}
				res, err := e.Search(queries[qi], opt)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if !sameResult(res, want[qi]) {
					t.Errorf("worker %d: query %d answered other bits", w, qi)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestReferenceSearchErrors pins the reference scorer to the same query
// contract as Search.
func TestReferenceSearchErrors(t *testing.T) {
	u := synth.NewUniverse(50, 4, 77)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 2, MinExperiments: 6, MaxExperiments: 8, Seed: 78,
	})
	if _, err := referenceSearch(dss, nil, Options{}); err == nil {
		t.Fatal("empty query should error")
	}
	if _, err := referenceSearch(dss, []string{"  "}, Options{}); err == nil {
		t.Fatal("blank query should error")
	}
	if _, err := referenceSearch(dss, []string{"NOT-A-GENE"}, Options{}); err == nil {
		t.Fatal("unknown query genes should error")
	}
}
