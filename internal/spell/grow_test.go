package spell

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"forestview/internal/microarray"
	"forestview/internal/synth"
)

// answer renders a search, or its error, with every float as its bit
// pattern, so that == compares two searches exactly.
func answer(e *Engine, query []string, opt Options) string {
	res, err := e.Search(query, opt)
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	for _, d := range res.Datasets {
		fmt.Fprintf(&b, "%d %s %x %x %d\n", d.Index, d.Name, math.Float64bits(d.Weight), math.Float64bits(d.QueryCoherence), d.QueryPresent)
	}
	for _, g := range res.Genes {
		fmt.Fprintf(&b, "%s %s %x %t\n", g.ID, g.Name, math.Float64bits(g.Score), g.IsQuery)
	}
	return b.String()
}

// TestEngineGrowMatchesNewEngine: an engine grown by datasets is the engine
// built over all of them at once — the same gene index and dataset names,
// bit-identical searches and byte-identical partial frames over any subset
// — and the engine it grew from answers exactly as before, while it grows.
// The splits are random, the grown datasets bring genes the base lacks (rows
// are shuffled and dropped), and one hand-built dataset carries a gene ID
// twice, its last row the one scored.
func TestEngineGrowMatchesNewEngine(t *testing.T) {
	u := synth.NewUniverse(120, 6, 81)
	gen, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 6, MinExperiments: 8, MaxExperiments: 14,
		ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.04, Seed: 82,
	})
	rng := rand.New(rand.NewSource(83))
	var pool []*microarray.Dataset
	for _, ds := range gen {
		pool = append(pool, scrambled(ds, rng, 0.3, nil))
	}
	twice := disjointDataset("twice", 12, 10, 84)
	twice.Genes[7] = twice.Genes[2] // row 7 shadows row 2; twice-X007 is gone
	pool = append(pool, twice, disjointDataset("disjoint", 20, 9, 85))
	queries := [][]string{u.ModuleGeneIDs(1)[:3], u.ModuleGeneIDs(4)[:4], {"twice-X002", "twice-X004", "twice-X009"}}
	opts := []Options{{}, {UniformWeights: true}, {IncludeQuery: true, MaxGenes: 25}}
	answers := func(e *Engine) []string {
		var out []string
		for _, q := range queries {
			for _, opt := range opts {
				out = append(out, answer(e, q, opt))
			}
		}
		return out
	}

	for trial := range 6 {
		dss := make([]*microarray.Dataset, len(pool))
		for i, j := range rng.Perm(len(pool)) {
			dss[i] = pool[j]
		}
		k := 1 + rng.Intn(len(dss)-1)
		name := fmt.Sprintf("trial %d (%d+%d)", trial, k, len(dss)-k)
		whole, err := NewEngine(dss)
		if err != nil {
			t.Fatal(err)
		}
		base, err := NewEngine(dss[:k])
		if err != nil {
			t.Fatal(err)
		}
		ids, names, before := base.GeneIDs(), base.DatasetNames(), answers(base)

		// Two grows of one base at once, while the base answers: neither may
		// write into the other, nor into the base.
		var grown [2]*Engine
		var errs [2]error
		var wg sync.WaitGroup
		for i := range grown {
			wg.Add(1)
			go func() {
				defer wg.Done()
				grown[i], errs[i] = base.Grow(dss[k:])
			}()
		}
		during := answers(base)
		wg.Wait()
		if !slices.Equal(during, before) || !slices.Equal(answers(base), before) {
			t.Fatalf("%s: the base answers differently once grown", name)
		}
		if !slices.Equal(base.GeneIDs(), ids) || !slices.Equal(base.DatasetNames(), names) {
			t.Fatalf("%s: growing changed the base's genes or dataset names", name)
		}

		for i, g := range grown {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !slices.Equal(g.GeneIDs(), whole.GeneIDs()) || !slices.Equal(g.DatasetNames(), whole.DatasetNames()) {
				t.Fatalf("%s: grown engine's genes or dataset names differ from NewEngine's", name)
			}
			if got, want := answers(g), answers(whole); !slices.Equal(got, want) {
				t.Fatalf("%s: grown engine answers\n%v\nNewEngine answers\n%v", name, got, want)
			}
			subsets := [][]int{nil, rng.Perm(len(dss))[:1+rng.Intn(len(dss))]}
			for di := k; di < len(dss); di++ {
				subsets = append(subsets, []int{di})
			}
			for _, q := range queries {
				for _, subset := range subsets {
					got, gerr := frameOf(g, q, subset)
					want, werr := frameOf(whole, q, subset)
					if fmt.Sprint(gerr) != fmt.Sprint(werr) || !slices.Equal(got, want) {
						t.Fatalf("%s: query %v subset %v: grown frame (%v) differs from NewEngine's (%v)", name, q, subset, gerr, werr)
					}
				}
			}
		}
	}
}

// frameOf is the frame an engine sends for a partial over subset.
func frameOf(e *Engine, query []string, subset []int) ([]byte, error) {
	p, err := e.PartialSearchSubsetCtx(context.Background(), query, subset, Options{})
	if err != nil {
		return nil, err
	}
	return e.AppendPartial(nil, p)
}
