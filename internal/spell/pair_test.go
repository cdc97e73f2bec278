package spell

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"forestview/internal/microarray"
	"forestview/internal/stats"
	"forestview/internal/synth"
	"forestview/internal/tilecorr"
)

var nan = math.NaN()

// kernelVsPearson runs two raw rows (NaN = missing) through slab
// construction and the kernel — tilecorr.Dot, FinishBlock, exactLanes, row A as
// the query against the lane of row B and back — and through the oracle the
// kernel stands in for: stats.Pearson on the rows z-scored with their NaNs
// intact.
func kernelVsPearson(t testing.TB, a, b []float64) (got, want float64) {
	t.Helper()
	ds := &microarray.Dataset{
		Name:        "pair",
		Experiments: make([]string, len(a)),
		Genes:       []microarray.Gene{{ID: "A"}, {ID: "B"}},
		Data:        [][]float64{a, b},
	}
	sl := buildSlab(ds, map[string]int{"A": 0, "B": 1}, 2)
	nExp := sl.tiles.NExp()
	pair := func(query, lane int) float64 {
		q := tilecorr.Query{Rows: sl.appendQueryRows(nil, []int{query}), Buf: make([]float64, tilecorr.QueryCells(1, nExp))}
		sl.tiles.Gather(&q)
		z, _, _ := q.Block(0, nExp)
		var dots, corr [blockRows * tileRows]float64
		tilecorr.Dot(&dots, sl.tiles.Tile(0), z, nExp)
		if m := sl.tiles.FinishBlock(&corr, &dots, 0, &q, 0); m != 0 {
			sl.exactLanes(&corr, m, 0, q.Rows)
		}
		return corr[lane]
	}
	got = pair(0, 1)
	if back := pair(1, 0); math.Float64bits(back) != math.Float64bits(got) {
		t.Fatalf("the kernel is not symmetric: %v vs %v\na=%v\nb=%v", got, back, a, b)
	}
	return got, stats.Pearson(zscores(a), zscores(b))
}

// assertPairParity is the pair-level contract: NaN exactly when
// stats.Pearson is NaN, within 1e-12 of it otherwise.
func assertPairParity(t testing.TB, a, b []float64) (got float64) {
	t.Helper()
	got, want := kernelVsPearson(t, a, b)
	if math.IsNaN(got) != math.IsNaN(want) || math.Abs(got-want) > 1e-12 {
		t.Fatalf("kernel = %v, stats.Pearson = %v (diff %g)\na=%v\nb=%v",
			got, want, math.Abs(got-want), a, b)
	}
	return got
}

// underEachDot runs f as the subtest named for the kernel routines this
// build runs ("go" or "avx2-fma", tilecorr.KernelName()); the other name says so
// and passes. A test binary has one routine — the kernel exports no switch,
// and only tilecorr's own tests flip its unexported one — so SPELL's oracles
// meet the Go loop in CI's `-tags purego` leg and the assembly in the default
// one.
func underEachDot(t *testing.T, f func(t *testing.T)) {
	for _, routine := range []string{"go", "avx2-fma"} {
		t.Run(routine, func(t *testing.T) {
			if k := tilecorr.KernelName(); k != routine {
				t.Logf("not run: this build's dot routine is %s", k)
				return
			}
			f(t)
		})
	}
}

func TestPairCorrTable(t *testing.T) {
	long := func(f func(i int) float64) []float64 { // 70 cells: the issue's "nExp 65+"
		r := make([]float64, 70)
		for i := range r {
			r[i] = f(i)
		}
		return r
	}
	wave := long(func(i int) float64 { return math.Sin(float64(i)) })
	ramp := long(func(i int) float64 { return float64(i%9) - 0.3*float64(i) })
	holed := func(r []float64, cols ...int) []float64 {
		out := append([]float64(nil), r...)
		for _, c := range cols {
			out[c] = nan
		}
		return out
	}
	cases := []struct {
		name    string
		a, b    []float64
		defined bool
	}{
		{"no missing", []float64{1, 2, 4, 3, 7}, []float64{2, 1, 5, 3, 9}, true},
		{"anti-correlated", []float64{1, 2, 3, 4}, []float64{8, 6, 4, 2}, true},
		{"one-sided", []float64{1, nan, 4, 3, 7}, []float64{2, 1, 5, 3, 9}, true},
		{"both-sided disjoint", []float64{1, nan, 4, 3, 7, 2}, []float64{2, 1, 5, nan, 9, 4}, true},
		{"overlapping", []float64{1, nan, nan, 3, 7, 2}, []float64{2, 1, nan, nan, 9, 4}, true},
		{"identical masks", []float64{nan, 5, 1, nan, 2}, []float64{nan, 1, 4, nan, 3}, true},
		{"joint n = 0", []float64{1, nan, 3, nan}, []float64{nan, 2, nan, 4}, false},
		{"joint n = 1", []float64{1, 2, nan, nan}, []float64{nan, 5, 6, 7}, false},
		{"joint n = 2", []float64{1, 2, 9, nan}, []float64{nan, 5, 6, 7}, true},
		{"all missing", []float64{nan, nan, nan}, []float64{1, 2, 3}, false},
		{"constant row", []float64{3, 3, 3, 3}, []float64{1, 2, 3, 4}, false},
		{"constant on the joint subset", []float64{5, 5, 5, 1, 9}, []float64{1, 2, 4, nan, nan}, false},
		{"both constant on the joint subset", []float64{5, 5, 1, 9}, []float64{2, 2, nan, nan}, false},
		{"nearly constant on the joint subset", []float64{5, 5 + 1e-9, 5 - 1e-9, 1, 90}, []float64{1, 2, 4, nan, nan}, true},
		{"outlier removed by the partner", []float64{0.1, 0.2, 0.15, 0.12, 1e6}, []float64{1, 3, 2, 5, nan}, true},
		{"large offset", []float64{1e8 + 1, 1e8 + 2, 1e8 + 4, nan}, []float64{3, 1, 2, 7}, true},
		{"nExp = 0", nil, nil, false},
		{"nExp = 1", []float64{1}, []float64{2}, false},
		{"nExp = 2", []float64{1, 2}, []float64{5, 3}, true},
		{"nExp = 70 complete", wave, ramp, true},
		{"nExp = 70 holes past column 64", holed(wave, 3, 64, 69), holed(ramp, 0, 64, 66), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			underEachDot(t, func(t *testing.T) {
				if got := assertPairParity(t, c.a, c.b); math.IsNaN(got) == c.defined {
					t.Fatalf("kernel = %v, want defined = %v", got, c.defined)
				}
			})
		})
	}
}

// TestPairCorrProperty sweeps random pairs over row length, missing rate
// and value shape (gaussian, spiked, offset, quantized — the last makes
// constant joint subsets common).
func TestPairCorrProperty(t *testing.T) {
	underEachDot(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(20260927))
		row := func(n int, missing float64, shape int) []float64 {
			r := make([]float64, n)
			for i := range r {
				switch shape {
				case 0:
					r[i] = rng.NormFloat64()
				case 1:
					r[i] = 0.01 * rng.NormFloat64()
					if rng.Intn(n) == 0 {
						r[i] = 50
					}
				case 2:
					r[i] = 1000 + rng.NormFloat64()
				default:
					r[i] = float64(rng.Intn(2))
				}
				if rng.Float64() < missing {
					r[i] = nan
				}
			}
			return r
		}
		for iter := 0; iter < 20000; iter++ {
			n := rng.Intn(12)
			if iter%4 == 0 {
				n = 12 + rng.Intn(90)
			}
			missing := []float64{0, 0.02, 0.3, 0.7}[rng.Intn(4)]
			assertPairParity(t, row(n, missing, rng.Intn(4)), row(n, missing, rng.Intn(4)))
		}
	})
}

// rowsFromBytes decodes a fuzz input into two equally long rows: the first
// byte is the length, then one value byte per cell (a signed eighth, so
// ties and constant stretches are common and nothing overflows) and one
// mask bit per cell.
func rowsFromBytes(data []byte) (a, b []float64) {
	if len(data) == 0 {
		return nil, nil
	}
	n := int(data[0]) % 80
	at := func(i int) byte {
		if 1+i < len(data) {
			return data[1+i]
		}
		return 0
	}
	a, b = make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = float64(int8(at(i))) / 8
		b[i] = float64(int8(at(n+i))) / 8
		if at(2*n+i/4)>>(2*(i%4))&1 != 0 {
			a[i] = nan
		}
		if at(2*n+i/4)>>(2*(i%4)+1)&1 != 0 {
			b[i] = nan
		}
	}
	return a, b
}

// FuzzPairCorr's seeds live in testdata/fuzz/FuzzPairCorr, one per case of
// TestPairCorrTable plus inputs an earlier fuzz run found interesting.
func FuzzPairCorr(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := rowsFromBytes(data)
		assertPairParity(t, a, b)
	})
}

// TestSlabDuplicateGeneIDLastRowWins: a hand-built dataset carrying one
// gene ID twice scores that gene once, by its last row.
func TestSlabDuplicateGeneIDLastRowWins(t *testing.T) {
	mk := func(dupFirst []float64) *Engine {
		ds := &microarray.Dataset{
			Name:        "dup",
			Experiments: make([]string, 4),
			Genes:       []microarray.Gene{{ID: "Q1"}, {ID: "D"}, {ID: "Q2"}, {ID: "D"}},
			Data:        [][]float64{{1, 2, 3, 5}, dupFirst, {2, 1, 4, 6}, {4, 1, 3, 9}},
		}
		e, err := NewEngine([]*microarray.Dataset{ds})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	var scores []float64
	for _, first := range [][]float64{{9, 8, 1, 0}, {0, 0, 7, nan}} {
		res, err := mk(first).Search([]string{"Q1", "Q2"}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Genes) != 1 || res.Genes[0].ID != "D" {
			t.Fatalf("genes = %+v, want D once", res.Genes)
		}
		scores = append(scores, res.Genes[0].Score)
	}
	want := (stats.Pearson([]float64{4, 1, 3, 9}, []float64{1, 2, 3, 5}) +
		stats.Pearson([]float64{4, 1, 3, 9}, []float64{2, 1, 4, 6})) / 2
	if scores[0] != scores[1] || math.Abs(scores[0]-want) > 1e-12 {
		t.Fatalf("scores %v: the shadowed first row leaked in (want %v both times)", scores, want)
	}
}

// TestSearchBitStable: the same query on the same engine returns the same
// bits, run after run and at every parallelism — each float sum is taken in
// dataset order by the one worker that owns the gene. The mixed-genes
// compendium is what holds the scan to ownership by gene: its datasets list
// different genes in different orders, so a range of the gene index cuts
// each dataset's tiles somewhere else, and a scan that shared out tiles
// instead would give one gene's accumulator cell two writers (the race
// detector sees it, and the sums change with the parallelism).
func TestSearchBitStable(t *testing.T) {
	u := synth.NewUniverse(300, 8, 91)
	raw, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 7, MinExperiments: 8, MaxExperiments: 20,
		ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.05, Seed: 92,
	})
	query := u.ModuleGeneIDs(2)[:4]
	keep := map[string]bool{}
	for _, q := range query {
		keep[q] = true
	}
	rng := rand.New(rand.NewSource(93))
	mixed := make([]*microarray.Dataset, len(raw))
	for di, ds := range raw {
		mixed[di] = scrambled(ds, rng, 0.2, keep)
	}
	for _, tc := range []struct {
		name string
		dss  []*microarray.Dataset
	}{{"same-genes", raw}, {"mixed-genes", mixed}} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(tc.dss)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.Search(query, Options{IncludeQuery: true, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			var wantPart [2]*Partial // the weighted pair, the uniform pair
			for k := range wantPart {
				wantPart[k], err = e.PartialSearchSubsetCtx(context.Background(), query, []int{5, 0, 3}, Options{Parallelism: 1, UniformWeights: k == 1})
				if err != nil {
					t.Fatal(err)
				}
			}
			for run := 0; run < 24; run++ {
				opt := Options{IncludeQuery: true, Parallelism: []int{1, 2, 3, 4, 5, 7}[run%6]}
				got, err := e.Search(query, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(got, want) {
					t.Fatalf("run %d (parallelism %d): Search result differs in some bit", run, opt.Parallelism)
				}
				for k, want := range wantPart {
					opt.UniformWeights = k == 1
					part, err := e.PartialSearchSubsetCtx(context.Background(), query, []int{5, 0, 3}, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(part.IDs, want.IDs) || !reflect.DeepEqual(part.Sums, want.Sums) { // accumulators are never NaN
						t.Fatalf("run %d (parallelism %d, uniform %t): partial accumulators differ in some bit", run, opt.Parallelism, opt.UniformWeights)
					}
				}
			}
		})
	}
}

// TestRankingTieOrder plants exactly tied scores and pins the one order
// Search and Merge promise: score descending, then gene ID — with and without
// the MaxGenes cut, which takes the bounded-selection path of topK.
func TestRankingTieOrder(t *testing.T) {
	exps := make([]string, 5)
	q1, q2 := []float64{1, 2, 3, 4, 6}, []float64{2, 3, 5, 4, 7}
	twin := []float64{3, 1, 4, 1, 5}    // the Z*, M* and A* genes are copies: tied to the bit
	loner := []float64{1, 2, 3, 5, 6.5} // close to the query: ranks first
	ds := &microarray.Dataset{Name: "ties", Experiments: exps}
	for _, g := range []struct {
		id  string
		row []float64
	}{
		{"Q1", q1}, {"Z9", twin}, {"M5", twin}, {"Q2", q2}, {"TOP", loner}, {"A1", twin}, {"Z1", twin},
	} {
		ds.Genes = append(ds.Genes, microarray.Gene{ID: g.id, Name: g.id})
		ds.Data = append(ds.Data, g.row)
	}
	e, err := NewEngine([]*microarray.Dataset{ds})
	if err != nil {
		t.Fatal(err)
	}
	query := []string{"Q1", "Q2"}
	ids := func(r *Result) []string { return r.TopGeneIDs(len(r.Genes)) }

	for _, k := range []int{0, 3, 4, 5, 9} {
		cut := func(want []string) []string {
			if k > 0 && k < len(want) {
				return want[:k]
			}
			return want
		}
		res, err := e.Search(query, Options{MaxGenes: k})
		if err != nil {
			t.Fatal(err)
		}
		want := cut([]string{"TOP", "A1", "M5", "Z1", "Z9"})
		if !reflect.DeepEqual(ids(res), want) {
			t.Fatalf("Search MaxGenes=%d ranked %v, want %v", k, ids(res), want)
		}
		part, err := e.PartialSearchSubsetCtx(context.Background(), query, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		merged, err := Merge([]Partial{*part}, Options{MaxGenes: k})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ids(merged), want) {
			t.Fatalf("Merge MaxGenes=%d ranked %v, want %v", k, ids(merged), want)
		}
	}
}
