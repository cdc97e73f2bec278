package spell

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"forestview/internal/microarray"
	"forestview/internal/stats"
)

// TestDotTileMatchesGo holds the assembly dot routine to the Go loop: on
// random tiles, for every row length that matters (none, shorter than any
// unrolling, the paper's 12-40, past 64), with 1-4 live query rows and with
// argument slices of exactly the length dotTile asserts — NaN lies right
// behind them, so a routine reading one cell too far poisons its answer.
// Each of the 32 dot products is within nExp·2⁻⁵²·Σ|q·t| of the Go loop's
// (the two differ by fused against unfused rounding only), and the 32 are
// the only memory written.
func TestDotTileMatchesGo(t *testing.T) {
	if !useAsm {
		t.Skip("no AVX2+FMA dot routine in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(18))
	// exact returns n random cells as a slice of length and capacity n,
	// with NaN before and after it in memory.
	exact := func(n int) []float64 {
		buf := make([]float64, n+2)
		for i := range buf {
			buf[i] = rng.NormFloat64()
		}
		buf[0], buf[n+1] = nan, nan
		return buf[1 : n+1 : n+1]
	}
	for _, nExp := range []int{0, 1, 2, 3, 12, 40, 70, 120} {
		for live := 1; live <= blockRows; live++ {
			tile, qz := exact(tileRows*nExp), exact(blockRows*nExp)
			for e := 0; e < nExp; e++ {
				for k := live; k < blockRows; k++ {
					qz[e*blockRows+k] = 0
				}
			}
			tileWas, qzWas := slices.Clone(tile), slices.Clone(qz)
			const sentinel = 12345.678
			var got struct {
				before [4]float64
				out    [blockRows * tileRows]float64
				after  [4]float64
			}
			for _, cells := range [][]float64{got.before[:], got.out[:], got.after[:]} {
				for i := range cells {
					cells[i] = sentinel // every output is written, zeros included
				}
			}
			dotTile(&got.out, tile, qz, nExp)
			var want [blockRows * tileRows]float64
			dotTileGo(&want, tile, qz, nExp)
			for k := 0; k < blockRows; k++ {
				for j := 0; j < tileRows; j++ {
					mag := 0.0
					for e := 0; e < nExp; e++ {
						mag += math.Abs(qz[e*blockRows+k] * tile[e*tileRows+j])
					}
					g, w := got.out[k*tileRows+j], want[k*tileRows+j]
					if !(math.Abs(g-w) <= float64(nExp)*0x1p-52*mag) {
						t.Fatalf("nExp %d, %d live rows: dot[%d][%d] = %v, the Go loop says %v", nExp, live, k, j, g, w)
					}
				}
			}
			for _, s := range append(got.before[:], got.after[:]...) {
				if s != sentinel {
					t.Fatalf("nExp %d: the routine wrote outside its 32 outputs", nExp)
				}
			}
			if !slices.Equal(tile, tileWas) || !slices.Equal(qz, qzWas) {
				t.Fatalf("nExp %d: the routine wrote to its inputs", nExp)
			}

			// One cell short on either side never reaches the routine.
			if nExp > 0 {
				for _, short := range [][2][]float64{{tile[:len(tile)-1], qz}, {tile, qz[:len(qz)-1]}} {
					out := got.out
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("nExp %d: dotTile accepted an argument one cell short", nExp)
							}
						}()
						dotTile(&got.out, short[0], short[1], nExp)
					}()
					if got.out != out {
						t.Fatalf("nExp %d: the routine ran before dotTile rejected its arguments", nExp)
					}
				}
			}
		}
	}
}

// TestSlabGeneOrderedTiles: whatever order a dataset lists its genes in,
// however few of the compendium's genes it measures and wherever its row
// count falls against the tile size, the slab holds one row per gene ID in
// ascending gene-index order — the last row carrying the ID, a shadowed
// earlier one nowhere — and Search over such datasets matches
// ReferenceSearch to 1e-12.
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
		if want := (len(lastRow) + tileRows - 1) / tileRows * tileRows; len(sl.zt) != want*nExp || len(sl.t1) != want || len(sl.missOff) != want+1 {
			t.Fatalf("%s: slab not padded to %d rows", ds.Name, want)
		}
		for r, gi := range sl.gids {
			if r > 0 && sl.gids[r-1] >= gi {
				t.Fatalf("%s: gids not ascending at row %d: %v", ds.Name, r, sl.gids)
			}
			// The row, read back out of its tile with its missing cells
			// restored, is the z-scored last row carrying the gene.
			got := make([]float64, nExp)
			for i := range got {
				got[i] = sl.zt[(r/tileRows*nExp+i)*tileRows+r%tileRows]
			}
			for _, m := range sl.miss[sl.missOff[r]:sl.missOff[r+1]] {
				if int(m&7) != r%tileRows || got[m>>3] != 0 {
					t.Fatalf("%s row %d: missing entry %d names another lane or a stored value", ds.Name, r, m)
				}
				got[m>>3] = nan
			}
			want := stats.ZScores(ds.Row(lastRow[gi]))
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
			want, err := e.ReferenceSearch(query, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsMatch(t, got, want, 1e-12)
		}
	}
}

// TestOraclesUnderGoDot runs the package's search-level oracles once more
// under the Go dot loop, on a host where start-up chose the assembly and
// every other test therefore ran under that.
func TestOraclesUnderGoDot(t *testing.T) {
	if !useAsm {
		t.Skip("the Go loop is the routine every other test already ran under")
	}
	useAsm = false
	defer func() { useAsm = true }()
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

// BenchmarkF4_SPELLTile times the kernel on one tile: 8 rows × 26
// experiments (the paper compendium's mean) against one block of 4 query
// rows, dot then finish, under each dot routine. ns/pair is the whole
// kernel per (gene row, query row) pair and dot-ns/pair the dot routine's
// share of it, timed by itself after the measured loop — so a kernel change
// can tell the dot from the finish without a profiler.
func BenchmarkF4_SPELLTile(b *testing.B) {
	const nExp, pairs = 26, blockRows * tileRows
	asm := useAsm
	defer func() { useAsm = asm }()
	for _, routine := range []string{"go", "avx2"} {
		for _, missing := range []float64{0, 0.02} {
			name := "complete"
			if missing > 0 {
				name = fmt.Sprintf("missing=%g", missing)
			}
			b.Run(routine+"/"+name, func(b *testing.B) {
				if useAsm = routine == "avx2"; useAsm && !asm {
					b.Skip("no AVX2+FMA dot routine in this build or on this CPU")
				}
				rng := rand.New(rand.NewSource(26))
				ds := &microarray.Dataset{Name: "tile", Experiments: make([]string, nExp)}
				gid := map[string]int{}
				for g := 0; g < tileRows; g++ {
					r := make([]float64, nExp)
					for i := range r {
						r[i] = rng.NormFloat64()
						if rng.Float64() < missing {
							r[i] = nan
						}
					}
					id := fmt.Sprint(g)
					gid[id] = g
					ds.Genes, ds.Data = append(ds.Genes, microarray.Gene{ID: id}), append(ds.Data, r)
				}
				sl := buildSlab(ds, gid, tileRows)
				if (missing > 0) != (len(sl.miss) > 0) {
					b.Fatalf("the tile has %d missing cells at rate %g", len(sl.miss), missing)
				}
				q := queryRows{rows: sl.appendQueryRows(nil, []int{0, 1, 2, 3}), buf: make([]float64, 2*blockRows*nExp)}
				sl.gather(&q)
				z, _, _ := q.block(0, nExp)
				var dots [pairs]float64
				var corr [tileRows]float64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dotTile(&dots, sl.zt, z, nExp)
					for k := 0; k < blockRows; k++ {
						sl.finishTile(&corr, 0, (*[tileRows]float64)(dots[k*tileRows:]), &q, k, tileRows)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/pair")
				start := time.Now()
				for i := 0; i < b.N; i++ {
					dotTile(&dots, sl.zt, z, nExp)
				}
				b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N)/pairs, "dot-ns/pair")
			})
		}
	}
}
