package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"forestview/internal/stats"
	"forestview/internal/tilecorr"
)

// structural reports whether rows a and b are a pair whose distance the
// tile build must take from the exact distance itself rather than from the
// kernel's one-pass arithmetic: fewer than three shared cells, an undefined
// correlation, or |r| within 1e-12 of 1 — where exact ties decide merges.
// (The margin keeps pairs the kernel's own r, a rounding away, may see on
// either side of the line out of the claim.)
func structural(a, b []float64) bool {
	joint := 0
	for i := range a {
		if !math.IsNaN(a[i]) && !math.IsNaN(b[i]) {
			joint++
		}
	}
	r := stats.Pearson(a, b)
	return joint < 3 || math.IsNaN(r) || math.Abs(r) > 1-1e-12+1e-14
}

// requireDistancesMatchMetric holds every entry of the condensed matrix
// buildDistances makes of rows to the exact Pearson distance on the raw
// rows: never NaN, within 1e-12, and the same bits on structural pairs.
func requireDistancesMatchMetric(t *testing.T, rows [][]float64) {
	t.Helper()
	dist, err := buildDistances(context.Background(), rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		for j := 0; j < i; j++ {
			got, want := dist.at(i, j), distance(rows[i], rows[j])
			if math.IsNaN(got) || math.Abs(got-want) > 1e-12 {
				t.Fatalf("pair (%d,%d) = %v, exact distance = %v\na=%v\nb=%v", i, j, got, want, rows[i], rows[j])
			}
			if got != want && structural(rows[i], rows[j]) {
				t.Fatalf("pair (%d,%d) = %v is not the exact distance %v to the bit (|Δ|=%g)\na=%v\nb=%v",
					i, j, got, want, math.Abs(got-want), rows[i], rows[j])
			}
		}
	}
}

// TestDistancesMatchMetric is the distance build's property test for the
// Pearson distance, under both kernel routines: row counts either side of the
// tile and block sizes, 1-70 columns, missing rates 0-40%, and in every set
// as many as fit of the rows that break one-pass arithmetic — a constant row,
// an all-missing row, a duplicated row, ±Inf cells, and pairs of rows sharing
// exactly 0, 1 and 2 cells.
func TestDistancesMatchMetric(t *testing.T) {
	underEachDot(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(19))
		for _, n := range []int{1, 2, 7, 8, 9, 17, 64, 257} {
			for iter := 0; iter < 6; iter++ {
				dim := 1 + rng.Intn(70)
				rows := noisyRows(rng.Int63(), n, dim, []float64{0, 0.02, 0.15, 0.4}[rng.Intn(4)])
				slots := rng.Perm(n) // where the special rows go
				take := func() []float64 {
					if len(slots) == 0 {
						return make([]float64, dim) // no room left: a throwaway
					}
					row := rows[slots[0]]
					slots = slots[1:]
					return row
				}
				specials := []func(){
					func() { // constant
						for i, row := 0, take(); i < dim; i++ {
							row[i] = 1.5
						}
					},
					func() { // all missing
						for i, row := 0, take(); i < dim; i++ {
							row[i] = math.NaN()
						}
					},
					func() { copy(take(), rows[rng.Intn(n)]) }, // duplicated
					func() { take()[rng.Intn(dim)] = math.Inf(1) },
					func() { take()[rng.Intn(dim)] = math.Inf(-1) },
				}
				for shared := 0; shared <= 2; shared++ {
					specials = append(specials, func() { // two rows sharing exactly `shared` cells (or all dim of them)
						a, b := take(), take()
						cut := max(shared, dim/2)
						for i := range a {
							a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
							if i >= cut {
								a[i] = math.NaN()
							}
							if i < cut-shared {
								b[i] = math.NaN()
							}
						}
					})
				}
				rng.Shuffle(len(specials), func(i, j int) { specials[i], specials[j] = specials[j], specials[i] })
				for _, plant := range specials {
					plant()
				}
				requireDistancesMatchMetric(t, rows)
			}
		}
		// The case that fixed the rule: two rows sharing two cells correlate
		// at exactly ±1 in distance, among rows that correlate at 0.99….
		// (On these two the one-pass identity lands on 1 − 5.6e-16.)
		two := [][]float64{
			{-1.75, 1.75, math.NaN(), math.NaN(), 4, 2},
			{math.NaN(), math.NaN(), 3.25, 1.25, 1.75, -2.75},
			{-1.75, 1.751, 3.25, 1.25, 4, 2.001},
			{-1.75, 1.75, 3.252, 1.25, 4.001, 2},
		}
		requireDistancesMatchMetric(t, two)
		if d, err := buildDistances(context.Background(), two); err != nil || d.at(1, 0) != 0 {
			t.Fatalf("rows sharing two concordant cells: distance %v (err %v), want exactly 0", d.at(1, 0), err)
		}
	})
}

// TestTreeParityPaperShape certifies the whole kernel's trees at a size and
// missing rates the 40-48-row golden fixtures do not reach: every row is
// several tiles from most others, most tiles hold a missing cell, and at 15%
// missing nearly every pair is corrected.
func TestTreeParityPaperShape(t *testing.T) {
	underEachDot(t, func(t *testing.T) {
		for _, missing := range []float64{0.02, 0.15} {
			rows := noisyRows(600, 600, 24, missing)
			for _, linkage := range allLinkages {
				got, err := HierarchicalCtx(context.Background(), rows, PearsonDist, linkage)
				if err != nil {
					t.Fatal(err)
				}
				checkTree(t, rows, linkage, got)
			}
		}
	})
}

// TestDistancesWorkerIndependent: a pair's value is a function of the rows
// and their indices, so the matrix is the same bits whatever GOMAXPROCS
// shares the blocks out to.
func TestDistancesWorkerIndependent(t *testing.T) {
	rows := noisyRows(31, 257, 19, 0.05)
	copy(rows[40], rows[200]) // a handed-back pair
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want *sqMatrix
	for _, procs := range []int{1, 2, 3, 5} {
		runtime.GOMAXPROCS(procs)
		got, err := buildDistances(context.Background(), rows)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS=%d: the distance matrix differs from GOMAXPROCS=1's in some bit", procs)
		}
	}
}

// BenchmarkF4_ClusterDistances times stage 1 alone — the square matrix of
// 2,000 rows × 37 experiments, complete and at the served 2% missing — and
// reports it per pair, so a set-up change can tell the distance build from
// the NN-chain (BenchmarkF4_Cluster times both) without a profiler.
func BenchmarkF4_ClusterDistances(b *testing.B) {
	for _, missing := range []float64{0, 0.02} {
		b.Run(fmt.Sprintf("missing=%g", missing), func(b *testing.B) {
			rows := noisyRows(37, 2000, 37, missing)
			if holes := slices.ContainsFunc(rows, func(r []float64) bool { return slices.ContainsFunc(r, math.IsNaN) }); holes != (missing > 0) {
				b.Fatalf("rows have missing cells: %t at rate %g", holes, missing)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := buildDistances(context.Background(), rows); err != nil {
					b.Fatal(err)
				}
			}
			pairs := float64(len(rows) * (len(rows) - 1) / 2)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/pair")
		})
	}
}

// TestTreeBitsPaperShape pins the kernel trees of TestTreeParityPaperShape to
// the bit. The parity tests tolerate tie order and 1e-12 of height, so they
// cannot show that a change to the kernel moved nothing; this digest can. It
// is a SHA-256 over (A, B, Float64bits(Height)) of every merge of every
// kernel tree that test builds, in its loop order, one constant per kernel
// routine (the assembly's fused multiply-adds round differently from the Go
// loop's). A change that means to move a bit records the new digest and
// says why.
func TestTreeBitsPaperShape(t *testing.T) {
	want := map[string]string{
		"avx2-fma": "9ccc2d40a7a448722169b7fb92c908b2bd7c4e7f5bb2992668326aa37a7e473a",
		"avx512":   "9ccc2d40a7a448722169b7fb92c908b2bd7c4e7f5bb2992668326aa37a7e473a",
		"go":       "d3b041793fae523ea36058990c4486e6e51e48a1fcc70648fba0a25d98d93f1b",
	}
	underEachDot(t, func(t *testing.T) {
		h := sha256.New()
		var buf [24]byte
		for _, missing := range []float64{0.02, 0.15} {
			rows := noisyRows(600, 600, 24, missing)
			for _, linkage := range allLinkages {
				tree, err := HierarchicalCtx(context.Background(), rows, PearsonDist, linkage)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range tree.Merges {
					binary.LittleEndian.PutUint64(buf[0:], uint64(m.A))
					binary.LittleEndian.PutUint64(buf[8:], uint64(m.B))
					binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(m.Height))
					h.Write(buf[:])
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[tilecorr.KernelName()] {
			t.Fatalf("kernel trees digest %s, want %s: some merge moved a bit", got, want[tilecorr.KernelName()])
		}
	})
}

// TestDistancesSquareMirror: the matrix stage 1 hands the chain is
// symmetric to the bit, +Inf on its diagonal, whatever GOMAXPROCS deals the
// rows out to. 37 rows end both the last block and the last tile short.
func TestDistancesSquareMirror(t *testing.T) {
	rows := noisyRows(41, 37, 11, 0.1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		dist, err := buildDistances(context.Background(), rows)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			if d := dist.at(i, i); !math.IsInf(d, 1) {
				t.Fatalf("GOMAXPROCS=%d: diagonal (%d,%d) = %v, want +Inf", procs, i, i, d)
			}
			for j := 0; j < i; j++ {
				if lo, hi := dist.at(i, j), dist.at(j, i); math.Float64bits(lo) != math.Float64bits(hi) {
					t.Fatalf("GOMAXPROCS=%d: (%d,%d) = %v but (%d,%d) = %v", procs, i, j, lo, j, i, hi)
				}
			}
		}
	}
}

// at reads cell (i, j) of a distance matrix.
func (m *sqMatrix) at(i, j int) float64 { return m.v[i*m.n+j] }

// TestSquareCellsOverflow: the matrix size is checked, not wrapped. An int
// holds 46,340² but not 46,341² on 32-bit platforms, 3,037,000,499² but not
// 3,037,000,500² on 64-bit ones; past that HierarchicalCtx says so.
func TestSquareCellsOverflow(t *testing.T) {
	if c, err := squareCells(int32(46340)); err != nil || c != 2147395600 {
		t.Fatalf("int32 46,340²: %d, %v", c, err)
	}
	if c, err := squareCells(int32(46341)); err == nil {
		t.Fatalf("int32 46,341²: %d, want an error", c)
	}
	if c, err := squareCells(int64(3037000499)); err != nil || c != 9223372030926249001 {
		t.Fatalf("int64 3,037,000,499²: %d, %v", c, err)
	}
	if c, err := squareCells(int64(3037000500)); err == nil {
		t.Fatalf("int64 3,037,000,500²: %d, want an error", c)
	}
	if c, err := squareCells(0); err != nil || c != 0 {
		t.Fatalf("0²: %d, %v", c, err)
	}
	if strconv.IntSize == 32 {
		// The size is checked before anything reads a row or a cell.
		n := 46341
		if _, err := HierarchicalCtx(context.Background(), make([][]float64, n), PearsonDist, AverageLinkage); err == nil {
			t.Fatalf("HierarchicalCtx on %d rows: no error", n)
		}
	}
}
