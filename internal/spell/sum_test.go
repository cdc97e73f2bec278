package spell

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"reflect"
	"slices"
	"strings"
	"testing"

	"forestview/internal/microarray"
	"forestview/internal/stats"
	"forestview/internal/synth"
	"forestview/internal/tilecorr"
)

// groupFleet is a sharded fleet as the spell layer sees it: each ownership
// group names its two replicas (the same shard twice at R=1), the datasets
// are dealt to the groups round-robin, and shard s holds — in an engine of
// its own, whose gene order is its own — every dataset of every group that
// names it.
type groupFleet struct {
	dss    []*microarray.Dataset
	full   *Engine
	owners [][2]int  // group → its two replicas
	local  []*Engine // shard → engine over its holdings
	held   [][][]int // shard → group → local dataset indexes (nil: not a replica)
	global [][]int   // shard → local dataset index → global index
}

// pairOwners are the groups of an n-shard R=2 fleet: every ordered pair of
// distinct shards.
func pairOwners(n int) [][2]int {
	var owners [][2]int
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				owners = append(owners, [2]int{a, b})
			}
		}
	}
	return owners
}

func newGroupFleet(t testing.TB, dss []*microarray.Dataset, shards int, owners [][2]int) *groupFleet {
	t.Helper()
	f := &groupFleet{dss: dss, owners: owners, local: make([]*Engine, shards), held: make([][][]int, shards), global: make([][]int, shards)}
	var err error
	if f.full, err = NewEngine(dss); err != nil {
		t.Fatal(err)
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

// masks lists, by shard, the groups each is asked for when group g goes to
// replica assign>>g&1.
func (f *groupFleet) masks(assign int) []uint {
	masks := make([]uint, len(f.local))
	for g, own := range f.owners {
		masks[own[assign>>g&1]] |= 1 << g
	}
	return masks
}

// TestSumMergeMatchesSearch is the golden-parity proof of the batched fleet
// path: whichever replica each of the 12 groups of a 4-shard R=2 fleet is
// assigned to — all 4,096 assignments, which batch the groups into one to
// four requests of one to twelve groups — the Merge of the shards' answers
// (each one scan of the union of its assigned groups), handed to it in
// either order, encodes to the single-process Search's JSON bytes:
// weighted, UniformWeights, and on a compendium incoherent everywhere, where
// the weighted round ends in ErrNeedUniform and the uniform round matches.
// The dense shortcut of Merge's union (every answer lists the same genes)
// and the slot table (answers listing different gene subsets) must both
// have been taken, and Merge must leave the partials it is given untouched.
func TestSumMergeMatchesSearch(t *testing.T) {
	u := synth.NewUniverse(160, 8, 81)
	raw, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 18, MinExperiments: 8, MaxExperiments: 14,
		ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.03, Seed: 82,
	})
	query := u.ModuleGeneIDs(3)[:4]
	scrambledAll, degenerate := scrambledPair(raw, query, 83)

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
			f := newGroupFleet(t, tc.dss, 4, pairOwners(4))
			for _, opt := range tc.opts {
				want, err := f.full.Search(query, opt)
				if err != nil {
					t.Fatal(err)
				}
				// A shard's answer depends on the groups it was given and the
				// accumulator kind alone: scanned once, shared by every
				// assignment that asks it for the same groups.
				type ask struct {
					s, mask int
					uniform bool
				}
				scans, before := map[ask]*Partial{}, map[ask]any{}
				// The bit above the groups' hands the answers over back to front.
				for assign := 0; assign < 2<<len(f.owners); assign++ {
					round := func(o Options) []Partial {
						var answers []Partial
						for s, mask := range f.masks(assign) {
							if mask == 0 {
								continue
							}
							k := ask{s, int(mask), o.UniformWeights}
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
						if assign>>len(f.owners) == 1 {
							slices.Reverse(answers)
						}
						return answers
					}
					got, rounds := mergeRounds(t, round, opt)
					if rounds != tc.rounds {
						t.Fatalf("assignment %013b %+v: merged in %d round(s), want %d", assign, opt, rounds, tc.rounds)
					}
					assertSameJSON(t, got, want)
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
		"ragged columns":        {Query: []string{"A", "B"}, Datasets: ds(1), IDs: []string{"A"}, Names: []string{"a"}, Sums: [4][]float64{{1}, {1}, {1}}},
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

// TestGridRefusesWhatItCannotHold: an engine, a grown engine and a Merge
// union of more than MaxDatasets are refused, naming the bound; a union of
// exactly MaxDatasets merges.
func TestGridRefusesWhatItCannotHold(t *testing.T) {
	bound := fmt.Sprint(MaxDatasets)
	if _, err := NewEngine(make([]*microarray.Dataset, MaxDatasets+1)); err == nil || !strings.Contains(err.Error(), bound) {
		t.Errorf("NewEngine over %d datasets: err = %v", MaxDatasets+1, err)
	}
	e, err := NewEngine([]*microarray.Dataset{disjointDataset("one", 4, 6, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Grow(make([]*microarray.Dataset, MaxDatasets)); err == nil || !strings.Contains(err.Error(), bound) {
		t.Errorf("Grow to %d datasets: err = %v", MaxDatasets+1, err)
	}
	union := func(n int) []Partial {
		parts := []Partial{{Query: []string{"A", "B"}}, {Query: []string{"A", "B"}}}
		for i := range n {
			parts[i%2].Datasets = append(parts[i%2].Datasets, PartialDataset{Index: i, Name: fmt.Sprint("d", i), Coherence: 1, Present: 2})
		}
		return parts
	}
	if _, err := Merge(union(MaxDatasets), Options{}); err != nil {
		t.Errorf("Merge of %d datasets: %v", MaxDatasets, err)
	}
	if _, err := Merge(union(MaxDatasets+1), Options{}); err == nil || !strings.Contains(err.Error(), bound) {
		t.Errorf("Merge of %d datasets: err = %v", MaxDatasets+1, err)
	}
}

// TestGridFloorWeight: a coherence whose grid value is zero (1e-25 is below
// the grid's 2^-71) carries no weight, in stage 2 (weight) and in finish
// alike: the dataset is listed at weight zero and adds to no gene, and when
// every coherence is below the grid the degenerate fallback takes over.
func TestGridFloorWeight(t *testing.T) {
	if w, wu := weight(1e-25, 2, false), weight(1e-25, 2, true); w != 0 || wu != 1 {
		t.Fatalf("a 1e-25 coherence weighs %v, %v with uniform weights; want 0 and 1", w, wu)
	}
	u := synth.NewUniverse(60, 4, 3)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{NumDatasets: 2, MinExperiments: 8, MaxExperiments: 10, ActiveFraction: 0.5, Noise: 0.3, Seed: 4})
	f := newGroupFleet(t, dss, 2, [][2]int{{0, 0}, {1, 1}})
	query := u.ModuleGeneIDs(1)[:3]
	scan := func(s int, coherence float64) Partial {
		p := *f.scan(t, s, 1<<s, query, Options{})
		p.Datasets[0].Coherence = coherence
		return p
	}
	alone, err := Merge([]Partial{scan(0, 0.5)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Dataset 1 at 1e-25: what stage 2 makes of it is no gene at all.
	planted := Partial{Query: CanonicalQuery(query), Datasets: scan(1, 1e-25).Datasets}
	got, err := Merge([]Partial{scan(0, 0.5), planted}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Datasets) != 2 || got.Datasets[0].Weight != 1 || got.Datasets[1].Weight != 0 {
		t.Fatalf("dataset list with a planted 1e-25 coherence: %+v", got.Datasets)
	}
	got.Datasets = got.Datasets[:1]
	assertSameJSON(t, got, alone)

	// Every coherence below the grid: the merge falls back, asking for the
	// uniform pair.
	planted.Datasets = append(planted.Datasets, scan(0, 3e-26).Datasets...)
	if _, err := Merge([]Partial{planted}, Options{}); !errors.Is(err, ErrNeedUniform) {
		t.Fatalf("every coherence below the grid: err = %v, want ErrNeedUniform", err)
	}
}

// exactSumParts is how many parts FuzzExactSum deals its terms into.
const exactSumParts = 8

// FuzzExactSum holds the grid to its promise. Every 9 bytes of the input are
// one term — 8 bytes of float64 bits, brought within the term cap
// FisherZ(1−1e-7), and a byte naming its part — for at most MaxDatasets
// terms, and the input's length rotates the order the parts are merged in.
// Added front to back, back to front, and part by part then merged, the
// terms must give the same four columns to the bit (the weight columns take
// |term| as the weight); the sum columns must be the exact sums of the
// terms' grid values, and hi+lo within n·2^-71 of the exact sum of the
// terms (math/big).
func FuzzExactSum(f *testing.F) {
	termCap, le := stats.FisherZ(1), binary.LittleEndian
	// The worst lo column: MaxDatasets terms whose rest is +2^-31 each, each
	// a tie the hi rounding breaks down, to an even multiple of 2^-30.
	var worst []byte
	for i := range MaxDatasets {
		worst = append(le.AppendUint64(worst, math.Float64bits(0x1p-31+float64(i%7)*0x1p-29)), byte(i))
	}
	f.Add(worst)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/9, MaxDatasets)
		var sums [2 + exactSumParts]accum // front to back, back to front, the parts
		for k := range sums {
			sums[k] = newAccum(1)
		}
		add := func(a accum, x float64) { // as scoreGenes adds a term
			tHi, tLo := tilecorr.Split(x)
			cHi, cLo := tilecorr.Split(math.Abs(x))
			a[sumHi][0], a[sumLo][0], a[cntHi][0], a[cntLo][0] = a[sumHi][0]+tHi, a[sumLo][0]+tLo, a[cntHi][0]+cHi, a[cntLo][0]+cLo
		}
		terms := make([]float64, n)
		for i := range terms {
			if x := math.Float64frombits(le.Uint64(data[9*i:])); !math.IsNaN(x) && !math.IsInf(x, 0) {
				terms[i] = math.Mod(x, termCap)
			}
			add(sums[0], terms[i])
			add(sums[2+int(data[9*i+8])%exactSumParts], terms[i])
		}
		for i := n - 1; i >= 0; i-- {
			add(sums[1], terms[i])
		}
		merged := newAccum(1)
		for k := range exactSumParts {
			for c, col := range sums[2+(k+len(data))%exactSumParts] {
				addRows(merged[c], col, nil)
			}
		}
		for name, a := range map[string]accum{"back to front": sums[1], "by parts": merged} {
			for c := range a {
				if math.Float64bits(a[c][0]) != math.Float64bits(sums[0][c][0]) {
					t.Fatalf("%s: column %d is %v, front to back %v", name, c, a[c][0], sums[0][c][0])
				}
			}
		}
		// 1200 bits hold any sum of terms between 2^-1074 and 2^4.
		exact, hi, lo := new(big.Float).SetPrec(1200), new(big.Float).SetPrec(1200), new(big.Float).SetPrec(1200)
		for _, x := range terms {
			h, l := tilecorr.Split(x)
			exact.Add(exact, big.NewFloat(x))
			hi.Add(hi, big.NewFloat(h))
			lo.Add(lo, big.NewFloat(l))
		}
		if hi.Cmp(big.NewFloat(sums[0][sumHi][0])) != 0 || lo.Cmp(big.NewFloat(sums[0][sumLo][0])) != 0 {
			t.Fatalf("the columns %v, %v are not the exact sums %v, %v of the grid values", sums[0][sumHi][0], sums[0][sumLo][0], hi, lo)
		}
		if diff := hi.Sub(hi.Add(hi, lo), exact); diff.Abs(diff).Cmp(big.NewFloat(float64(n)*0x1p-71)) > 0 {
			t.Fatalf("hi+lo is %v from the exact sum of %d terms, more than n·2^-71", diff, n)
		}
	})
}

// newAccum is a zeroed accumulator of n genes from the pool.
func newAccum(n int) accum {
	a, _ := pooledColumns(n, true)
	return a
}
