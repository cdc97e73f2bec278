package spell

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"forestview/internal/microarray"
	"forestview/internal/synth"
)

// groupFleet is a 4-shard R=2 fleet as the spell layer sees it: the 12
// ordered owner pairs (a, b) are the ownership groups, the datasets are
// dealt to them round-robin, and shard s holds — in an engine of its own,
// whose gene order is its own — every dataset of every group that names it.
type groupFleet struct {
	dss    []*microarray.Dataset
	full   *Engine
	owners [][2]int   // group → its two replicas
	local  [4]*Engine // shard → engine over its holdings
	held   [4][][]int // shard → group → local dataset indexes (nil: not a replica)
	global [4][]int   // shard → local dataset index → global index
}

func newGroupFleet(t testing.TB, dss []*microarray.Dataset) *groupFleet {
	t.Helper()
	f := &groupFleet{dss: dss}
	var err error
	if f.full, err = NewEngine(dss); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a != b {
				f.owners = append(f.owners, [2]int{a, b})
			}
		}
	}
	for s := range f.local {
		var slice []*microarray.Dataset
		f.held[s] = make([][]int, len(f.owners))
		for di, ds := range dss {
			g := di % len(f.owners)
			if f.owners[g][0] != s && f.owners[g][1] != s {
				continue
			}
			f.held[s][g] = append(f.held[s][g], len(slice))
			f.global[s] = append(f.global[s], di)
			slice = append(slice, ds)
		}
		if f.local[s], err = NewEngine(slice); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// scan is what shard s answers a request for the groups of mask with: one
// subset scan over the union of their datasets it holds, local indexes
// ascending, dataset indexes remapped to global.
func (f *groupFleet) scan(t testing.TB, s int, mask uint, query []string, o Options) *Partial {
	t.Helper()
	subset := []int{}
	for g := range f.owners {
		if mask>>g&1 == 1 {
			subset = append(subset, f.held[s][g]...)
		}
	}
	slices.Sort(subset)
	p, err := f.local[s].PartialSearchSubsetCtx(context.Background(), query, subset, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Datasets {
		p.Datasets[i].Index = f.global[s][p.Datasets[i].Index]
	}
	return p
}

// TestSumMergeMatchesSearch is the golden-parity proof of the batched fleet
// path: whichever replica each of the 12 groups of a 4-shard R=2 fleet is
// assigned to — all 4,096 assignments, which batch the groups into one to
// four requests of one to twelve groups — the Merge of the shards' answers
// (each one scan of the union of its assigned groups) matches the
// single-process Search to 1e-12: weighted, UniformWeights, and on a
// compendium incoherent everywhere, where the weighted round ends in
// ErrNeedUniform and the uniform round matches. The dense shortcut of Merge's
// union (every answer lists the same genes) and the slot table (answers
// listing different gene subsets) must both have been taken, and Merge must
// leave the partials it is given untouched.
func TestSumMergeMatchesSearch(t *testing.T) {
	u := synth.NewUniverse(160, 8, 81)
	raw, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 18, MinExperiments: 8, MaxExperiments: 14,
		ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.03, Seed: 82,
	})
	query := u.ModuleGeneIDs(3)[:4]
	keep := map[string]bool{}
	for _, q := range query {
		keep[q] = true
	}
	rng := rand.New(rand.NewSource(83))
	scrambledAll := make([]*microarray.Dataset, len(raw))
	degenerate := make([]*microarray.Dataset, len(raw))
	for di, ds := range raw {
		scrambledAll[di] = scrambled(ds, rng, 0.25, keep)
		// One query gene per dataset: no coherence is defined anywhere.
		var rows []int
		for r, g := range ds.Genes {
			if !keep[g.ID] || g.ID == query[di%len(query)] {
				rows = append(rows, r)
			}
		}
		degenerate[di] = scrambled(ds.Subset(ds.Name, rows), rng, 0.25, keep)
	}

	dense, slotted := 0, 0
	for _, tc := range []struct {
		name   string
		dss    []*microarray.Dataset
		opts   []Options
		rounds int
	}{
		{"same-genes", raw, []Options{{}, {UniformWeights: true}}, 1},
		{"mixed-genes", scrambledAll, []Options{{MaxGenes: 30, IncludeQuery: true}, {UniformWeights: true}}, 1},
		{"degenerate", degenerate, []Options{{IncludeQuery: true}}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newGroupFleet(t, tc.dss)
			for _, opt := range tc.opts {
				want, err := f.full.Search(query, opt)
				if err != nil {
					t.Fatal(err)
				}
				// A shard's answer depends on the groups it was given and the
				// accumulator kind alone: scanned once, shared by every
				// assignment that asks it for the same groups.
				type ask struct {
					s       int
					mask    uint
					uniform bool
				}
				scans, before := map[ask]*Partial{}, map[ask]any{}
				for assign := 0; assign < 1<<len(f.owners); assign++ {
					round := func(o Options) []Partial {
						var masks [4]uint
						for g, own := range f.owners {
							masks[own[assign>>g&1]] |= 1 << g
						}
						var answers []Partial
						for s, mask := range masks {
							if mask == 0 {
								continue
							}
							k := ask{s, mask, o.UniformWeights}
							if scans[k] == nil {
								scans[k] = f.scan(t, s, mask, query, Options{UniformWeights: o.UniformWeights})
								before[k] = partialBits(scans[k])
							}
							answers = append(answers, *scans[k])
						}
						same := true
						for _, p := range answers[1:] {
							same = same && (len(p.IDs) == 0 || len(answers[0].IDs) == 0 || sameColumn(p.IDs, answers[0].IDs))
						}
						if len(answers) > 1 && same {
							dense++
						} else if len(answers) > 1 {
							slotted++
						}
						return answers
					}
					got, rounds := mergeRounds(t, round, opt)
					if rounds != tc.rounds {
						t.Fatalf("assignment %012b %+v: merged in %d round(s), want %d", assign, opt, rounds, tc.rounds)
					}
					assertResultsMatch(t, got, want, 1e-12)
				}
				for k, p := range scans {
					if !reflect.DeepEqual(partialBits(p), before[k]) {
						t.Fatalf("%+v: Merge wrote to the shared partial of shard %d groups %012b", opt, k.s, k.mask)
					}
				}
			}
		})
	}
	if dense == 0 || slotted == 0 {
		t.Fatalf("Merge took the dense path %d times and the slot table %d times: both must be tested", dense, slotted)
	}
}

// TestSumAndMergeRefuse: what Merge may not combine.
func TestSumAndMergeRefuse(t *testing.T) {
	ds := func(i int) []PartialDataset {
		return []PartialDataset{{Index: i, Name: fmt.Sprint("d", i), Coherence: 1, Present: 2}}
	}
	ok := Partial{Query: []string{"A", "B"}, Datasets: ds(0)}
	for name, other := range map[string]Partial{
		"another query":         {Query: []string{"A", "C"}, Datasets: ds(1)},
		"another accumulator":   {Query: []string{"A", "B"}, Datasets: ds(1), Uniform: true},
		"ragged columns":        {Query: []string{"A", "B"}, Datasets: ds(1), IDs: []string{"A"}, Names: []string{"a"}, Sum: []float64{1}},
		"a non-canonical query": {Query: []string{"B", "A"}, Datasets: ds(1)},
	} {
		first, second := ok, other
		if name == "a non-canonical query" {
			first = other // both must run it, or the query check fires first
		}
		if _, err := Merge([]Partial{first, second}, Options{}); err == nil {
			t.Errorf("Merge accepted %s", name)
		}
	}
	if _, err := Merge(nil, Options{}); err == nil {
		t.Error("Merge accepted no partials")
	}
	// Uniform partials where the coherences call for the weighted pair is a
	// plain error; the reverse is the sentinel the coordinator acts on.
	uni := ok
	uni.Uniform = true
	if _, err := Merge([]Partial{uni}, Options{}); err == nil || errors.Is(err, ErrNeedUniform) {
		t.Errorf("uniform partials over coherent datasets: err = %v", err)
	}
	if _, err := Merge([]Partial{ok}, Options{UniformWeights: true}); !errors.Is(err, ErrNeedUniform) {
		t.Errorf("weighted partials under UniformWeights: err = %v, want ErrNeedUniform", err)
	}
	nan := Partial{Query: []string{"A", "B"}, Datasets: []PartialDataset{{Name: "d", Coherence: math.NaN(), Present: 1}}}
	if _, err := Merge([]Partial{nan}, Options{}); !errors.Is(err, ErrNeedUniform) {
		t.Errorf("weighted partials over an incoherent compendium: err = %v, want ErrNeedUniform", err)
	}
}
