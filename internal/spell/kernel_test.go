package spell

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"forestview/internal/microarray"
	"forestview/internal/synth"
	"forestview/internal/tilecorr"
)

// TestSlabGeneOrderedTiles: whatever order a dataset lists its genes in,
// however few of the compendium's genes it measures and wherever its row
// count falls against the tile size, the slab holds one row per gene ID in
// ascending gene-index order — the last row carrying the ID, a shadowed
// earlier one nowhere — and Search over such datasets matches
// the oracle to 1e-12.
func TestSlabGeneOrderedTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const nGenes, nExp = 17, 9
	id := func(g int) string { return fmt.Sprintf("G%02d", g) }
	row := func() []float64 {
		r := make([]float64, nExp)
		for i := range r {
			r[i] = rng.NormFloat64()
			if rng.Intn(8) == 0 {
				r[i] = nan
			}
		}
		return r
	}
	// dataset lists the given genes in the given order, random rows.
	dataset := func(name string, genes []int) *microarray.Dataset {
		ds := &microarray.Dataset{Name: name, Experiments: make([]string, nExp)}
		for _, g := range genes {
			ds.Genes = append(ds.Genes, microarray.Gene{ID: id(g), Name: id(g)})
			ds.Data = append(ds.Data, row())
		}
		return ds
	}
	all := make([]int, nGenes)
	for g := range all {
		all[g] = g
	}
	dss := []*microarray.Dataset{dataset("index", all)} // fixes gene g's global index at g
	for _, n := range []int{1, 7, 8, 9, 17} {
		dss = append(dss, dataset(fmt.Sprintf("rows-%d", n), rng.Perm(nGenes)[:n]))
	}
	twice := rng.Perm(nGenes)[:9]
	twice = append(twice, twice[2]) // ten rows, nine genes: row 2 is shadowed by row 9
	dss = append(dss, dataset("twice", twice))

	e, err := NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	for di, ds := range dss {
		sl := e.slabs[di]
		lastRow := map[int32]int{}
		for r, g := range ds.Genes {
			lastRow[int32(e.gid[g.ID])] = r
		}
		if len(sl.gids) != len(lastRow) {
			t.Fatalf("%s: %d slab rows for %d gene IDs", ds.Name, len(sl.gids), len(lastRow))
		}
		for r, gi := range sl.gids {
			if r > 0 && sl.gids[r-1] >= gi {
				t.Fatalf("%s: gids not ascending at row %d: %v", ds.Name, r, sl.gids)
			}
			// The row, read back out of its tile with its missing cells
			// restored, is the z-scored last row carrying the gene.
			got := sl.tiles.AppendZ(nil, r)
			want := zscores(ds.Row(lastRow[gi]))
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
					t.Fatalf("%s row %d (gene %d): cell %d is %v, want %v", ds.Name, r, gi, i, got[i], want[i])
				}
			}
		}
	}
	for _, query := range [][]string{{id(0), id(5), id(16)}, {id(3), id(4), id(8), id(9), id(11)}} {
		for _, opt := range []Options{{IncludeQuery: true}, {UniformWeights: true}, {IncludeQuery: true, Parallelism: 3}} {
			got, err := e.Search(query, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceSearch(dss, query, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsMatch(t, got, want, 1e-12)
		}
	}
}

// TestOraclesUnderGoDot is what its name says in CI's `-tags purego` leg,
// the only place this package meets the Go dot loop on an AVX2 host: a test
// binary has one routine (the kernel exports no switch). In a default build
// it is a second pass of the search-level oracles over the assembly, kept
// under the name the suite has always listed; the log line says which.
func TestOraclesUnderGoDot(t *testing.T) {
	t.Logf("dot routine: %s", tilecorr.KernelName())
	for _, oracle := range []struct {
		name string
		test func(*testing.T)
	}{
		{"DenseMatchesReference", TestDenseMatchesReference},
		{"DenseMatchesReferenceDuplicateGeneIDs", TestDenseMatchesReferenceDuplicateGeneIDs},
		{"UniformWeightsAblation", TestUniformWeightsAblation},
		{"MergeMatchesSearch", TestMergeMatchesSearch},
		{"MergeMixedGeneColumns", TestMergeMixedGeneColumns},
		{"MergeDegenerateFallback", TestMergeDegenerateFallback},
		{"PartialSubsetMatchesSearch", TestPartialSubsetMatchesSearch},
		{"SumMergeMatchesSearch", TestSumMergeMatchesSearch},
		{"SearchBitStable", TestSearchBitStable},
		{"SearchDuplicateQueryInvariance", TestSearchDuplicateQueryInvariance},
		{"SlabGeneOrderedTiles", TestSlabGeneOrderedTiles},
		{"SlabDuplicateGeneIDLastRowWins", TestSlabDuplicateGeneIDLastRowWins},
	} {
		t.Run(oracle.name, oracle.test)
	}
}

// TestSearchAllocs guards what a search allocates on a paper-shaped engine
// — 6,000 genes, 24 datasets of 12-40 experiments, 2% missing, a 4-gene
// query on two workers, as the repo benchmark's `spell.search_allocs`
// measures it (27 when this test was written). Everything the kernel needs
// of the query is prepared once per search, in the two allocations stage 1
// cuts every dataset's query from: preparing it per worker and dataset (per
// scoreGenes call) or per tile costs dozens more and fails here.
func TestSearchAllocs(t *testing.T) {
	u := synth.NewUniverse(6000, 20, 13)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 24, MinExperiments: 12, MaxExperiments: 40,
		ActiveFraction: 0.4, Noise: 0.25, MissingRate: 0.02, Seed: 17,
	})
	e, err := NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	query := u.ModuleGeneIDs(4)[:4]
	opt := Options{MaxGenes: 20, IncludeQuery: true, Parallelism: 2}
	if n := testing.AllocsPerRun(5, func() {
		if _, err := e.Search(query, opt); err != nil {
			t.Fatal(err)
		}
	}); n > 30 {
		t.Fatalf("a search allocates %v times, want ≤ 30", n)
	}
}

// BenchmarkF4_SPELLTile times the kernel per tile: two tiles of 8 rows × 26
// experiments (the paper compendium's mean) against a query of rows from the
// next tile — a scan meets a gene with itself once in 6,000 rows, not once
// in 8 — as the scan runs them, one tilecorr.ScoreRange call adding the
// rows onto the grid, under the routines this build runs (`-tags purego`
// for the Go code on an AVX2 host; the AVX-512 routine scores both tiles in
// one pass). "complete" and "missing=0.02" meet a block of 4 rows; rows=3, 4
// and 5, at 2% missing, a block with a dead row, a full block, and a full
// block plus a lone row. ns/tile and ns/pair are the whole call per tile
// and per (gene row, query row) pair; blocks-ns/pair is one tile's sums
// block by block — Dot, FinishBlock and the Go sum, what a flagged tile
// costs (scoreFlagged) — and dot-ns/pair Dot's share of that, each timed by
// itself after the measured loop, so a kernel change can tell the dot from
// the finish without a profiler.
func BenchmarkF4_SPELLTile(b *testing.B) {
	const nExp, scored = 26, 2 * tileRows
	// The routine this build runs: "avx512", "avx2", or "go" under -tags purego.
	routine := strings.TrimSuffix(tilecorr.KernelName(), "-fma")
	for _, c := range []struct {
		name    string
		missing float64
		rows    int
	}{
		{"complete", 0, 4}, {"missing=0.02", 0.02, 4},
		{"rows=3", 0.02, 3}, {"rows=4", 0.02, 4}, {"rows=5", 0.02, 5},
	} {
		b.Run(routine+"/"+c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(26))
			ds := &microarray.Dataset{Name: "tile", Experiments: make([]string, nExp)}
			gid := map[string]int{}
			for g := 0; g < scored+tileRows; g++ {
				r := make([]float64, nExp)
				for i := range r {
					r[i] = rng.NormFloat64()
					if rng.Float64() < c.missing {
						r[i] = nan
					}
				}
				id := fmt.Sprint(g)
				gid[id] = g
				ds.Genes, ds.Data = append(ds.Genes, microarray.Gene{ID: id}), append(ds.Data, r)
			}
			sl := buildSlab(ds, gid, scored+tileRows)
			if holes := slices.ContainsFunc(ds.Data, func(r []float64) bool { return slices.ContainsFunc(r, math.IsNaN) }); holes != (c.missing > 0) {
				b.Fatalf("the tiles have missing cells: %t at rate %g", holes, c.missing)
			}
			qgids := make([]int, c.rows)
			for k := range qgids {
				qgids[k] = scored + k
			}
			q := tilecorr.Query{Rows: sl.appendQueryRows(nil, qgids), Buf: make([]float64, tilecorr.QueryCells(c.rows, nExp))}
			sl.tiles.Gather(&q)
			acc := newAccum(scored + tileRows)
			grid := (*[4][]float64)(&acc)
			if t, _ := sl.tiles.ScoreRange(grid, &q, sl.gids, 0.5, 0, scored); t >= 0 {
				b.Fatal("a tile flags a pair: the benchmark would time the fallback")
			}
			pairs := float64(c.rows * tileRows)
			perPair := func(d time.Duration, tiles int) float64 {
				return float64(d.Nanoseconds()) / float64(b.N) / pairs / float64(tiles)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sl.tiles.ScoreRange(grid, &q, sl.gids, 0.5, 0, scored)
			}
			b.StopTimer()
			b.ReportMetric(perPair(b.Elapsed(), 2)*pairs, "ns/tile")
			b.ReportMetric(perPair(b.Elapsed(), 2), "ns/pair")
			var sum, n [tileRows]float64
			start := time.Now()
			for i := 0; i < b.N; i++ {
				sl.scoreFlagged(&sum, &n, 0, &q)
			}
			b.ReportMetric(perPair(time.Since(start), 1), "blocks-ns/pair")
			tile := sl.tiles.Tile(0)
			var dots [blockRows * tileRows]float64
			start = time.Now()
			for i := 0; i < b.N; i++ {
				for blk := 0; blk < q.Blocks(); blk++ {
					z, _, _ := q.Block(blk, nExp)
					tilecorr.Dot(&dots, tile, z, nExp)
				}
			}
			b.ReportMetric(perPair(time.Since(start), 1), "dot-ns/pair")
		})
	}
}
