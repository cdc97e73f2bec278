package spell

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"forestview/internal/microarray"
	"forestview/internal/synth"
)

// shardSplit builds one engine per shard over a round-robin split of the
// datasets, runs PartialSearchSubsetCtx on each, and remaps the per-shard local
// dataset indexes back to the global compendium order — exactly what the
// shard server role does before answering the coordinator.
func shardSplit(t testing.TB, dss []*microarray.Dataset, nShards int, query []string, opt Options) []Partial {
	t.Helper()
	var parts []Partial
	for s := 0; s < nShards; s++ {
		var slice []*microarray.Dataset
		var global []int
		for di, ds := range dss {
			if di%nShards == s {
				slice = append(slice, ds)
				global = append(global, di)
			}
		}
		if len(slice) == 0 {
			continue
		}
		se, err := NewEngine(slice)
		if err != nil {
			t.Fatal(err)
		}
		p, err := se.PartialSearchSubsetCtx(context.Background(), query, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.Datasets {
			p.Datasets[i].Index = global[p.Datasets[i].Index]
		}
		parts = append(parts, *p)
	}
	return parts
}

// mergeRounds merges the way the coordinator does: the parts carry the pair
// opt asks for, and if Merge then finds it needs the uniform pair after all
// (ErrNeedUniform: every coherence clamped to zero) the parts are computed
// once more, uniform, and merged again. split computes the parts for a
// partial-search option set; rounds reports how many merges it took.
func mergeRounds(t testing.TB, split func(Options) []Partial, opt Options) (res *Result, rounds int) {
	t.Helper()
	res, err := Merge(split(Options{UniformWeights: opt.UniformWeights}), opt)
	if !errors.Is(err, ErrNeedUniform) {
		if err != nil {
			t.Fatalf("merge %+v: %v", opt, err)
		}
		return res, 1
	}
	if opt.UniformWeights {
		t.Fatalf("merge %+v: uniform partials answered ErrNeedUniform", opt)
	}
	res, err = Merge(split(Options{UniformWeights: true}), opt)
	if err != nil {
		t.Fatalf("merge %+v, uniform round: %v", opt, err)
	}
	return res, 2
}

// disjointDataset is a dataset over gene IDs that occur nowhere else in the
// compendium: it measures zero query genes, its coherence is NaN, and any
// shard holding it alone contributes nothing — the "shard holding zero
// coherent datasets" acceptance case.
func disjointDataset(name string, nGenes, nExp int, seed int64) *microarray.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &microarray.Dataset{Name: name, Experiments: make([]string, nExp)}
	for g := 0; g < nGenes; g++ {
		id := fmt.Sprintf("%s-X%03d", name, g)
		ds.Genes = append(ds.Genes, microarray.Gene{ID: id, Name: id})
		row := make([]float64, nExp)
		for i := range row {
			row[i] = rng.NormFloat64()
		}
		ds.Data = append(ds.Data, row)
	}
	return ds
}

// TestMergeMatchesSearch is the golden-parity proof for the sharded
// pipeline: for every shard count in {2, 3, 5}, Merge over the round-robin
// split of the compendium must agree with the single-process Search to
// 1e-12 — dataset weights, coherences, gene scores, and rank order (modulo
// exact float ties) — including a disjoint dataset whose shard contributes
// zero coherent datasets, missing values, and every result-shaping option.
// One shard is what Search itself runs (a partial, finished), so that case
// is held to the oracle instead: the chain is oracle.Search ← single ←
// K-way split.
func TestMergeMatchesSearch(t *testing.T) {
	for _, missing := range []float64{0, 0.05} {
		t.Run(fmt.Sprintf("missing-%g", missing), func(t *testing.T) {
			u := synth.NewUniverse(200, 8, 41)
			dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
				NumDatasets: 7, MinExperiments: 8, MaxExperiments: 18,
				ActiveFraction: 0.5, Noise: 0.3, MissingRate: missing, Seed: 42,
			})
			// Dataset 7 measures no query gene at all; with 5 shards the
			// round-robin split parks it (index 7 mod 5 == 2) next to a
			// coherent dataset, and with smaller compendndia-to-shard ratios
			// it still exercises Present == 0 / NaN-coherence merging.
			dss = append(dss, disjointDataset("disjoint", 30, 10, 99))
			full, err := NewEngine(dss)
			if err != nil {
				t.Fatal(err)
			}
			query := u.ModuleGeneIDs(3)[:5]
			for _, opt := range []Options{
				{},
				{IncludeQuery: true},
				{UniformWeights: true},
				{MaxGenes: 25, IncludeQuery: true},
			} {
				search, err := full.Search(query, opt)
				if err != nil {
					t.Fatalf("search %+v: %v", opt, err)
				}
				ref, err := referenceSearch(dss, query, opt)
				if err != nil {
					t.Fatalf("reference %+v: %v", opt, err)
				}
				for _, nShards := range []int{1, 2, 3, 5} {
					want := search
					if nShards == 1 {
						want = ref
					}
					parts := shardSplit(t, dss, nShards, query, opt)
					got, err := Merge(parts, opt)
					if err != nil {
						t.Fatalf("merge %d shards %+v: %v", nShards, opt, err)
					}
					assertResultsMatch(t, got, want, 1e-12)
					// Identical rank order, not merely tie-tolerant: the
					// synthetic scores carry no exact float ties.
					for i := range want.Genes {
						if got.Genes[i].ID != want.Genes[i].ID {
							t.Fatalf("%d shards %+v: rank %d = %s, want %s",
								nShards, opt, i, got.Genes[i].ID, want.Genes[i].ID)
						}
					}
					for i := range want.Datasets {
						if got.Datasets[i].Index != want.Datasets[i].Index {
							t.Fatalf("%d shards %+v: dataset rank %d = index %d, want %d",
								nShards, opt, i, got.Datasets[i].Index, want.Datasets[i].Index)
						}
					}
				}
			}
		})
	}
}

// TestMergeDegenerateFallback: when no dataset holds two query genes,
// every coherence is NaN, and SPELL falls back to uniform weights over
// datasets measuring the query. The global total being zero is knowable
// only over the whole compendium: Merge answers weighted partials with
// ErrNeedUniform, and reproduces Search from the uniform pair of the second
// round.
func TestMergeDegenerateFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nExp = 10
	mk := func(name string, ids ...string) *microarray.Dataset {
		ds := &microarray.Dataset{Name: name, Experiments: make([]string, nExp)}
		for _, id := range ids {
			row := make([]float64, nExp)
			for i := range row {
				row[i] = rng.NormFloat64()
			}
			ds.Genes = append(ds.Genes, microarray.Gene{ID: id, Name: id})
			ds.Data = append(ds.Data, row)
		}
		return ds
	}
	// A and B never share a dataset: coherence is NaN everywhere.
	dss := []*microarray.Dataset{
		mk("d0", "A", "F0", "F1", "F2"),
		mk("d1", "B", "F1", "F3", "F4"),
		mk("d2", "F0", "F3", "F5"),
	}
	full, err := NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	query := []string{"A", "B"}
	want, err := full.Search(query, Options{IncludeQuery: true})
	if err != nil {
		t.Fatal(err)
	}
	// Search takes the same second round by itself; the oracle has no rounds.
	ref, err := referenceSearch(dss, query, Options{IncludeQuery: true})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsMatch(t, want, ref, 1e-12)
	for _, nShards := range []int{1, 2, 3} {
		got, rounds := mergeRounds(t, func(o Options) []Partial {
			parts := shardSplit(t, dss, nShards, query, o)
			if !o.UniformWeights {
				// The weighted round of an incoherent query scans nothing.
				for _, p := range parts {
					if len(p.IDs) != 0 {
						t.Fatalf("%d shards: a weighted partial of an incoherent query scored %d genes", nShards, len(p.IDs))
					}
				}
			}
			return parts
		}, Options{IncludeQuery: true})
		if rounds != 2 {
			t.Fatalf("%d shards: merged in %d round(s), want the uniform second round", nShards, rounds)
		}
		assertResultsMatch(t, got, want, 1e-12)
	}
}

// TestPartialSearchNoQueryGenes: a shard whose slice holds none of the
// query genes answers with a valid zero-contribution partial, not an error
// — ErrNoQueryGenes belongs to the whole compendium, which only Merge (or
// Search, of its own engine) sees.
func TestPartialSearchNoQueryGenes(t *testing.T) {
	e, err := NewEngine([]*microarray.Dataset{disjointDataset("lone", 20, 8, 3)})
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.PartialSearchSubsetCtx(context.Background(), []string{"A", "B"}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.IDs) != 0 || len(p.Datasets) != 1 {
		t.Fatalf("partial shape: %d genes, %d datasets", len(p.IDs), len(p.Datasets))
	}
	if d := p.Datasets[0]; d.Present != 0 || !math.IsNaN(d.Coherence) {
		t.Fatalf("dataset entry: %+v", d)
	}
	// The union of only such shards is the single-process error case.
	if _, err := Merge([]Partial{*p}, Options{}); !errors.Is(err, ErrNoQueryGenes) {
		t.Fatalf("merge of query-free partials: err = %v, want ErrNoQueryGenes", err)
	}
	if _, err := e.Search([]string{"A", "B"}, Options{}); !errors.Is(err, ErrNoQueryGenes) {
		t.Fatalf("search for genes the compendium lacks: err = %v, want ErrNoQueryGenes", err)
	}
}

func TestMergeErrors(t *testing.T) {
	if _, err := Merge(nil, Options{}); err == nil {
		t.Fatal("empty partial list accepted")
	}
	pd := []PartialDataset{{Index: 0, Name: "d", Coherence: 1, Present: 2}}
	if _, err := Merge([]Partial{
		{Query: []string{"A", "B"}, Datasets: pd},
		{Query: []string{"A", "C"}, Datasets: []PartialDataset{{Index: 1, Name: "e", Present: 2}}},
	}, Options{}); err == nil {
		t.Fatal("mismatched queries accepted")
	}
	if _, err := Merge([]Partial{
		{Query: []string{"A", "B"}, Datasets: pd},
		{Query: []string{"A", "B"}, Datasets: pd},
	}, Options{}); err == nil {
		t.Fatal("dataset claimed by two shards accepted")
	}
}

// TestPartialGobRoundTrip pins the wire contract end to end: a Partial —
// NaN coherences included — survives its gob-enveloped frame bit-exactly,
// so the merged result of decoded partials is identical (==, not merely
// close) to the merge of the originals. (frame_test.go pins the frame
// itself.)
func TestPartialGobRoundTrip(t *testing.T) {
	u := synth.NewUniverse(120, 6, 17)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 3, MinExperiments: 8, MaxExperiments: 12,
		ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.03, Seed: 18,
	})
	dss = append(dss, disjointDataset("disjoint", 10, 8, 5))
	query := u.ModuleGeneIDs(2)[:4]
	parts := shardSplit(t, dss, 2, query, Options{})

	var wire []Partial
	for _, p := range parts {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(p); err != nil {
			t.Fatal(err)
		}
		var back Partial
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&back); err != nil {
			t.Fatal(err)
		}
		wire = append(wire, back)
	}
	want, err := Merge(parts, Options{IncludeQuery: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Merge(wire, Options{IncludeQuery: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Genes) != len(want.Genes) || len(got.Datasets) != len(want.Datasets) {
		t.Fatalf("shape changed over the wire")
	}
	for i := range want.Genes {
		if got.Genes[i] != want.Genes[i] {
			t.Fatalf("gene %d: %+v vs %+v", i, got.Genes[i], want.Genes[i])
		}
	}
	for i := range want.Datasets {
		g, w := got.Datasets[i], want.Datasets[i]
		bothNaN := math.IsNaN(g.QueryCoherence) && math.IsNaN(w.QueryCoherence)
		if bothNaN {
			g.QueryCoherence, w.QueryCoherence = 0, 0
		}
		if g != w {
			t.Fatalf("dataset %d: %+v vs %+v", i, got.Datasets[i], want.Datasets[i])
		}
	}
}

func TestPartialSearchCtxCanceled(t *testing.T) {
	u := synth.NewUniverse(100, 5, 23)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 3, MinExperiments: 8, MaxExperiments: 10, Seed: 24,
	})
	e, err := NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.PartialSearchSubsetCtx(ctx, u.ModuleGeneIDs(1)[:3], nil, Options{}); err == nil {
		t.Fatal("canceled context accepted")
	}
}

// TestPartialConcurrentHammer drives concurrent PartialSearchSubsetCtx + Merge
// against shared engines; under -race it proves the accumulator stage
// shares nothing mutable, and results must stay deterministic.
func TestPartialConcurrentHammer(t *testing.T) {
	u := synth.NewUniverse(150, 6, 61)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 6, MinExperiments: 8, MaxExperiments: 14,
		ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.03, Seed: 62,
	})
	full, err := NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	query := u.ModuleGeneIDs(2)[:4]
	want, err := full.Search(query, Options{IncludeQuery: true})
	if err != nil {
		t.Fatal(err)
	}

	// Two shard engines, shared by all workers.
	type eng struct {
		e      *Engine
		global []int
	}
	var shards []eng
	for s := 0; s < 2; s++ {
		var slice []*microarray.Dataset
		var global []int
		for di, ds := range dss {
			if di%2 == s {
				slice = append(slice, ds)
				global = append(global, di)
			}
		}
		se, err := NewEngine(slice)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, eng{e: se, global: global})
	}

	workers := 4 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				var parts []Partial
				for _, sh := range shards {
					p, err := sh.e.PartialSearchSubsetCtx(context.Background(), query, nil, Options{Parallelism: 1 + (w+iter)%3})
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					for i := range p.Datasets {
						p.Datasets[i].Index = sh.global[p.Datasets[i].Index]
					}
					parts = append(parts, *p)
				}
				got, err := Merge(parts, Options{IncludeQuery: true})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if len(got.Genes) != len(want.Genes) {
					t.Errorf("worker %d: %d genes, want %d", w, len(got.Genes), len(want.Genes))
					return
				}
				for i := range got.Genes {
					if math.Abs(got.Genes[i].Score-want.Genes[i].Score) > 1e-9 {
						t.Errorf("worker %d: rank %d score %v vs %v",
							w, i, got.Genes[i].Score, want.Genes[i].Score)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPartialSubsetMatchesSearch is the replication-era parity proof: a
// shard that holds more datasets than one request should claim (top-R
// ownership replicates slices) serves per-group *subsets* of its slice,
// and merging those subset partials must still reproduce the
// single-process Search. Here two "replica" engines hold overlapping
// slices of the compendium while the subsets requested from them
// partition the global dataset list exactly once — the coordinator's
// single-coverage discipline — and the merge must match Search to 1e-12.
func TestPartialSubsetMatchesSearch(t *testing.T) {
	u := synth.NewUniverse(180, 8, 43)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 7, MinExperiments: 8, MaxExperiments: 16,
		ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.03, Seed: 44,
	})
	dss = append(dss, disjointDataset("disjoint", 25, 9, 17))
	full, err := NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	query := u.ModuleGeneIDs(2)[:5]

	// Replica A holds globals {0..5}, replica B holds {3..7}: datasets 3-5
	// exist on both, like any dataset with two rendezvous owners.
	buildReplica := func(globals []int) (*Engine, []int) {
		var slice []*microarray.Dataset
		for _, gi := range globals {
			slice = append(slice, dss[gi])
		}
		e, err := NewEngine(slice)
		if err != nil {
			t.Fatal(err)
		}
		return e, globals
	}
	engA, globA := buildReplica([]int{0, 1, 2, 3, 4, 5})
	engB, globB := buildReplica([]int{3, 4, 5, 6, 7})

	// The coordinator assigns each global dataset to exactly one replica:
	// A serves {0,1,2,4}, B serves {3,5,6,7} — including datasets both
	// hold, split across the two.
	serveA := map[int]bool{0: true, 1: true, 2: true, 4: true}
	var subA, subB []int
	for li, gi := range globA {
		if serveA[gi] {
			subA = append(subA, li)
		}
	}
	for li, gi := range globB {
		if !serveA[gi] {
			subB = append(subB, li)
		}
	}

	for _, opt := range []Options{
		{},
		{UniformWeights: true},
		{MaxGenes: 25, IncludeQuery: true},
	} {
		want, err := full.Search(query, opt)
		if err != nil {
			t.Fatalf("search %+v: %v", opt, err)
		}
		pA, err := engA.PartialSearchSubsetCtx(context.Background(), query, subA, opt)
		if err != nil {
			t.Fatal(err)
		}
		pB, err := engB.PartialSearchSubsetCtx(context.Background(), query, subB, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pA.Datasets {
			pA.Datasets[i].Index = globA[pA.Datasets[i].Index]
		}
		for i := range pB.Datasets {
			pB.Datasets[i].Index = globB[pB.Datasets[i].Index]
		}
		got, err := Merge([]Partial{*pA, *pB}, opt)
		if err != nil {
			t.Fatalf("merge %+v: %v", opt, err)
		}
		assertResultsMatch(t, got, want, 1e-12)
		for i := range want.Genes {
			if got.Genes[i].ID != want.Genes[i].ID {
				t.Fatalf("%+v: rank %d = %s, want %s", opt, i, got.Genes[i].ID, want.Genes[i].ID)
			}
		}

		// A nil subset is the whole slice (every dataset): one part, which
		// is what Search finishes, so it answers to the oracle.
		ref, err := referenceSearch(dss, query, opt)
		if err != nil {
			t.Fatalf("reference %+v: %v", opt, err)
		}
		whole, err := full.PartialSearchSubsetCtx(context.Background(), query, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got, err = Merge([]Partial{*whole}, opt); err != nil {
			t.Fatalf("merge of the whole slice %+v: %v", opt, err)
		}
		assertResultsMatch(t, got, ref, 1e-12)
	}

	// An empty subset is a valid empty partial, and malformed subsets are
	// loud errors.
	if p, err := engA.PartialSearchSubsetCtx(context.Background(), query, []int{}, Options{}); err != nil || len(p.Datasets) != 0 || len(p.IDs) != 0 {
		t.Fatalf("empty subset: %+v, %v", p, err)
	}
	if _, err := engA.PartialSearchSubsetCtx(context.Background(), query, []int{0, 0}, Options{}); err == nil {
		t.Fatal("duplicate subset index accepted")
	}
	if _, err := engA.PartialSearchSubsetCtx(context.Background(), query, []int{99}, Options{}); err == nil {
		t.Fatal("out-of-range subset index accepted")
	}
}

// scrambled returns ds with its rows shuffled and a share of them dropped
// (never a row of keep), so that no two datasets of a compendium — and no
// two engines built over them — list the same genes in the same order.
func scrambled(ds *microarray.Dataset, rng *rand.Rand, drop float64, keep map[string]bool) *microarray.Dataset {
	var rows []int
	for _, r := range rng.Perm(ds.NumGenes()) {
		if keep[ds.Genes[r].ID] || rng.Float64() >= drop {
			rows = append(rows, r)
		}
	}
	return ds.Subset(ds.Name, rows)
}

// TestMergeMixedGeneColumns is the golden-parity proof for the slot table's
// general path: the parts list different gene subsets in different orders
// (so no part can reuse its predecessor's slot vector), some parts repeat a
// predecessor's column exactly (so some do), and Merge must still match the
// single-process Search to 1e-12 — weighted, UniformWeights, and the
// degenerate all-NaN-coherence fallback.
func TestMergeMixedGeneColumns(t *testing.T) {
	u := synth.NewUniverse(220, 8, 71)
	raw, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 9, MinExperiments: 8, MaxExperiments: 16,
		ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.04, Seed: 72,
	})
	query := u.ModuleGeneIDs(3)[:4]
	rng := rand.New(rand.NewSource(73))

	// coherent: every dataset keeps all query genes. degenerate: each keeps
	// exactly one, so no coherence is defined anywhere and Search falls back
	// to uniform weights.
	keepAll := map[string]bool{}
	for _, q := range query {
		keepAll[q] = true
	}
	coherent := make([]*microarray.Dataset, len(raw))
	degenerate := make([]*microarray.Dataset, len(raw))
	for di, ds := range raw {
		coherent[di] = scrambled(ds, rng, 0.25, keepAll)
		var rows []int
		for r, g := range ds.Genes {
			if !keepAll[g.ID] || g.ID == query[di%len(query)] {
				rows = append(rows, r)
			}
		}
		degenerate[di] = scrambled(ds.Subset(ds.Name, rows), rng, 0.25, keepAll)
	}

	for _, tc := range []struct {
		name string
		dss  []*microarray.Dataset
		opts []Options
	}{
		{"coherent", coherent, []Options{{}, {UniformWeights: true}, {MaxGenes: 30, IncludeQuery: true}}},
		{"degenerate", degenerate, []Options{{IncludeQuery: true}, {MaxGenes: 30}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full, err := NewEngine(tc.dss)
			if err != nil {
				t.Fatal(err)
			}
			// One part per dataset from the full engine: subsets of one gene
			// order, each compacted differently...
			perDataset := func(o Options) []Partial {
				var parts []Partial
				for di := range tc.dss {
					p, err := full.PartialSearchSubsetCtx(context.Background(), query, []int{di}, o)
					if err != nil {
						t.Fatal(err)
					}
					parts = append(parts, *p)
				}
				return parts
			}
			for _, opt := range tc.opts {
				want, err := full.Search(query, opt)
				if err != nil {
					t.Fatalf("search %+v: %v", opt, err)
				}
				if tc.name == "degenerate" {
					for _, d := range want.Datasets {
						if !math.IsNaN(d.QueryCoherence) {
							t.Fatalf("fixture: dataset %d has a defined coherence", d.Index)
						}
					}
				}
				splits := map[string]func(Options) []Partial{"per-dataset": perDataset}
				// ...and per-shard engines, whose first-seen gene orders differ.
				for _, n := range []int{2, 4} {
					splits[fmt.Sprintf("%d-shards", n)] = func(o Options) []Partial { return shardSplit(t, tc.dss, n, query, o) }
				}
				for name, split := range splits {
					var last []Partial // the parts of the round that merged
					got, rounds := mergeRounds(t, func(o Options) []Partial { last = split(o); return last }, opt)
					if want := map[string]int{"coherent": 1, "degenerate": 2}[tc.name]; rounds != want {
						t.Fatalf("%s %+v: merged in %d round(s), want %d", name, opt, rounds, want)
					}
					assertResultsMatch(t, got, want, 1e-12)
					mapped := 0
					for i := 1; i < len(last); i++ {
						if !slices.Equal(last[i].IDs, last[i-1].IDs) {
							mapped++
						}
					}
					if mapped == 0 {
						t.Fatalf("%s: every part repeats its predecessor's gene column; the general path is untested", name)
					}

					// The same parts doubled up — every second one repeats its
					// predecessor's column, half its accumulators each — take the
					// slot-reuse shortcut between the mapped parts and must agree.
					var halves []Partial
					for _, p := range last {
						a, b := p, p
						a.Datasets, b.Datasets = p.Datasets[:len(p.Datasets)/2], p.Datasets[len(p.Datasets)/2:]
						a.Sum, b.Sum = splitColumn(p.Sum)
						a.Cnt, b.Cnt = splitColumn(p.Cnt)
						halves = append(halves, a, b)
					}
					again, err := Merge(halves, opt)
					if err != nil {
						t.Fatalf("%s halves %+v: %v", name, opt, err)
					}
					assertResultsMatch(t, again, want, 1e-12)
				}
			}
		})
	}
}

// splitColumn splits an accumulator column into two that sum back to it
// exactly: the even rows in one, the odd rows in the other, zeros elsewhere.
func splitColumn(col []float64) (even, odd []float64) {
	even, odd = make([]float64, len(col)), make([]float64, len(col))
	for i, v := range col {
		if i%2 == 0 {
			even[i] = v
		} else {
			odd[i] = v
		}
	}
	return even, odd
}

// TestMergeResultOwnsItsMemory: a merged result shares nothing with the
// partials it came from. Decoded partials hold substrings of their frames'
// blobs, and the coordinator caches merged results: an aliased top-20 would
// pin every frame it was merged from. Scribbling over the parts must not
// change the result, and none of its strings may point into a part's.
func TestMergeResultOwnsItsMemory(t *testing.T) {
	u := synth.NewUniverse(120, 6, 17)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 4, MinExperiments: 8, MaxExperiments: 12,
		ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.03, Seed: 18,
	})
	query := u.ModuleGeneIDs(2)[:4]
	var parts []Partial
	for _, p := range shardSplit(t, dss, 2, query, Options{}) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(p); err != nil {
			t.Fatal(err)
		}
		var back Partial
		if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, back)
	}
	opt := Options{IncludeQuery: true, MaxGenes: 20}
	got, err := Merge(parts, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Every byte range a part's strings occupy.
	type span struct{ lo, hi uintptr }
	var spans []span
	note := func(s string) {
		if len(s) > 0 {
			lo := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			spans = append(spans, span{lo, lo + uintptr(len(s))})
		}
	}
	for _, p := range parts {
		for _, col := range [][]string{p.Query, p.IDs, p.Names} {
			for _, s := range col {
				note(s)
			}
		}
		for _, d := range p.Datasets {
			note(d.Name)
		}
	}
	held := 0
	check := func(what, s string) {
		held += len(s)
		if len(s) == 0 {
			return
		}
		at := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		for _, sp := range spans {
			if at >= sp.lo && at < sp.hi {
				t.Fatalf("%s %q points into a partial's memory", what, s)
			}
		}
	}
	for _, q := range got.Query {
		check("query gene", q)
	}
	for _, d := range got.Datasets {
		check("dataset name", d.Name)
	}
	for _, g := range got.Genes {
		check("gene ID", g.ID)
		check("gene name", g.Name)
	}
	if held == 0 || len(got.Genes) != 20 {
		t.Fatalf("fixture: result holds %d string bytes, %d genes", held, len(got.Genes))
	}

	want := bitsOf(got)
	wantIDs := got.TopGeneIDs(len(got.Genes))
	wantQuery := append([]string(nil), got.Query...)
	for pi := range parts {
		p := &parts[pi]
		for _, col := range [][]string{p.Query, p.IDs, p.Names} {
			for i := range col {
				col[i] = "scribbled"
			}
		}
		for _, col := range [][]float64{p.Sum, p.Cnt} {
			for i := range col {
				col[i] = -1
			}
		}
		for i := range p.Datasets {
			p.Datasets[i] = PartialDataset{Name: "scribbled"}
		}
	}
	if !reflect.DeepEqual(bitsOf(got), want) || !reflect.DeepEqual(got.TopGeneIDs(len(got.Genes)), wantIDs) || !reflect.DeepEqual(got.Query, wantQuery) {
		t.Fatal("scribbling over the merged partials changed the result")
	}
}
