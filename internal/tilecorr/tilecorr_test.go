package tilecorr

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"forestview/internal/stats"
)

var nan = math.NaN()

// underEachDot runs f as the subtests "go" and "avx2-fma": under the Go dot
// loop, and under the assembly routine where start-up selected it.
func underEachDot(t *testing.T, f func(t *testing.T)) {
	asm := useAsm
	defer func() { useAsm = asm }()
	t.Run("go", func(t *testing.T) {
		useAsm = false
		f(t)
	})
	t.Run("avx2-fma", func(t *testing.T) {
		if !asm {
			t.Skip("no AVX2+FMA dot routine in this build or on this CPU")
		}
		useAsm = true
		f(t)
	})
}

// TestDotTileMatchesGo holds the assembly dot routine to the Go loop: on
// random tiles, for every row length that matters (none, shorter than any
// unrolling, the paper's 12-40, past 64), with 1-4 live query rows and with
// argument slices of exactly the length Dot asserts — NaN lies right
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
		for live := 1; live <= BlockRows; live++ {
			tile, qz := exact(TileRows*nExp), exact(BlockRows*nExp)
			for e := 0; e < nExp; e++ {
				for k := live; k < BlockRows; k++ {
					qz[e*BlockRows+k] = 0
				}
			}
			tileWas, qzWas := slices.Clone(tile), slices.Clone(qz)
			const sentinel = 12345.678
			var got struct {
				before [4]float64
				out    [BlockRows * TileRows]float64
				after  [4]float64
			}
			for _, cells := range [][]float64{got.before[:], got.out[:], got.after[:]} {
				for i := range cells {
					cells[i] = sentinel // every output is written, zeros included
				}
			}
			Dot(&got.out, tile, qz, nExp)
			var want [BlockRows * TileRows]float64
			dotGo(&want, tile, qz, nExp)
			for k := 0; k < BlockRows; k++ {
				for j := 0; j < TileRows; j++ {
					mag := 0.0
					for e := 0; e < nExp; e++ {
						mag += math.Abs(qz[e*BlockRows+k] * tile[e*TileRows+j])
					}
					g, w := got.out[k*TileRows+j], want[k*TileRows+j]
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
								t.Fatalf("nExp %d: Dot accepted an argument one cell short", nExp)
							}
						}()
						Dot(&got.out, short[0], short[1], nExp)
					}()
					if got.out != out {
						t.Fatalf("nExp %d: the routine ran before Dot rejected its arguments", nExp)
					}
				}
			}
		}
	}
}

// TestTilesLayout: whatever the row count against the tile size, the tiles
// are padded to whole tiles, every missing entry names its own row's lane
// and a cell stored as 0, and a row read back with its missing cells
// restored is stats.ZScores of the row given, bit for bit.
func TestTilesLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const nExp = 9
	for _, n := range []int{0, 1, 7, 8, 9, 17} {
		rows := randomRows(rng, n, nExp, 0.15)
		s := New(rows, nExp)
		padded := (n + TileRows - 1) / TileRows * TileRows
		if s.NExp() != nExp || len(s.zt) != padded*nExp || len(s.t1) != padded || len(s.missOff) != padded+1 {
			t.Fatalf("%d rows: not padded to %d", n, padded)
		}
		for r, row := range rows {
			for _, m := range s.Row(r).miss {
				if int(m&7) != r%TileRows || s.Tile(r / TileRows)[m] != 0 {
					t.Fatalf("%d rows, row %d: missing entry %d names another lane or a stored value", n, r, m)
				}
			}
			got, want := s.AppendZ(nil, r), stats.ZScores(row)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
					t.Fatalf("%d rows, row %d: cell %d is %v, want %v", n, r, i, got[i], want[i])
				}
			}
		}
	}
}

// randomRows draws n rows of nExp gaussian cells, each missing at the given
// rate.
func randomRows(rng *rand.Rand, n, nExp int, missing float64) [][]float64 {
	rows := make([][]float64, n)
	for r := range rows {
		rows[r] = make([]float64, nExp)
		for i := range rows[r] {
			rows[r][i] = rng.NormFloat64()
			if rng.Float64() < missing {
				rows[r][i] = nan
			}
		}
	}
	return rows
}

// assertKernelContract tiles rows, meets every row with every tile the way
// the callers do — gathered in blocks, Dot, Finish over the tile's live
// lanes — and holds each pair to the kernel's contract against stats.Pearson
// on the rows as given: a lane Finish vouches for is NaN exactly when fewer
// than two cells are shared and within 1e-12 of stats.Pearson otherwise; and
// every pair that shares two cells, that stats.Pearson calls undefined, or
// that correlates at ±1, is flagged.
func assertKernelContract(t testing.TB, rows [][]float64, nExp int) {
	t.Helper()
	s := New(rows, nExp)
	q := Query{Buf: make([]float64, QueryCells(len(rows), nExp))}
	for r := range rows {
		q.Rows = append(q.Rows, s.Row(r))
	}
	s.Gather(&q)
	var dots [BlockRows * TileRows]float64
	var rs [TileRows]float64
	for b := 0; b < q.Blocks(); b++ {
		z, _, rowsLive := q.Block(b, nExp)
		for tl := 0; tl*TileRows < len(rows); tl++ {
			Dot(&dots, s.Tile(tl), z, nExp)
			live := min(TileRows, len(rows)-tl*TileRows)
			for k := 0; k < rowsLive; k++ {
				i := b*BlockRows + k
				flagged := s.Finish(&rs, tl, (*[TileRows]float64)(dots[k*TileRows:]), &q, i, live)
				if flagged>>live != 0 {
					t.Fatalf("rows %d, tile %d: lanes past the %d live ones flagged: %08b", i, tl, live, flagged)
				}
				for j := 0; j < live; j++ {
					a, c := rows[i], rows[tl*TileRows+j]
					joint := 0
					for e := range a {
						if !math.IsNaN(a[e]) && !math.IsNaN(c[e]) {
							joint++
						}
					}
					want := stats.Pearson(a, c)
					if flagged>>j&1 != 0 {
						if joint < 2 {
							t.Fatalf("rows %d and %d share %d cells and were flagged: NaN is certain", i, tl*TileRows+j, joint)
						}
						continue
					}
					if joint == 2 || joint > 2 && !(math.Abs(want) < 1-1e-13) {
						t.Fatalf("rows %d and %d (%d joint cells, stats.Pearson %v) were not flagged\na=%v\nb=%v", i, tl*TileRows+j, joint, want, a, c)
					}
					if got := rs[j]; math.IsNaN(got) != (joint < 2) || math.Abs(got-want) > 1e-12 {
						t.Fatalf("rows %d and %d: kernel = %v, stats.Pearson = %v (diff %g)\na=%v\nb=%v", i, tl*TileRows+j, got, want, math.Abs(got-want), a, c)
					}
				}
			}
		}
	}
}

// TestFinishContract sweeps the contract over row counts either side of the
// tile and block sizes, row lengths from none to past 64, missing rates from
// none to most cells, and value shapes (gaussian, spiked, offset, quantized —
// the last makes constant joint subsets and exact ±1 common), with a
// duplicated, a constant and an all-missing row in every set.
func TestFinishContract(t *testing.T) {
	underEachDot(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(20261002))
		for iter := 0; iter < 400; iter++ {
			n := 2 + rng.Intn(20)
			nExp := rng.Intn(12)
			if iter%4 == 0 {
				nExp = 12 + rng.Intn(60)
			}
			missing := []float64{0, 0.02, 0.3, 0.7}[rng.Intn(4)]
			rows := randomRows(rng, n, nExp, missing)
			for _, row := range rows {
				switch shape := rng.Intn(4); shape {
				case 1:
					for i := range row {
						row[i] *= 0.01
						if rng.Intn(nExp) == 0 {
							row[i] = 50
						}
					}
				case 2:
					for i := range row {
						row[i] += 1000
					}
				case 3:
					for i := range row {
						row[i] = float64(rng.Intn(2)) + 0*row[i] // keeps the NaNs
					}
				}
			}
			if n > 4 {
				rows[1] = slices.Clone(rows[n-1])
				for i := range rows[2] {
					rows[2][i], rows[3][i] = 1.5, nan
				}
			}
			assertKernelContract(t, rows, nExp)
		}
	})
}

// rowsFromBytes decodes a fuzz input into two equally long rows: the first
// byte is the length, then one value byte per cell (a signed eighth, so
// ties and constant stretches are common and nothing overflows) and one
// mask bit per cell. The format is internal/spell's FuzzPairCorr's, whose
// corpus this package's started from.
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

// FuzzPairCorr holds the kernel's contract on one pair of rows, both ways
// round and under both dot routines. Its seeds live in
// testdata/fuzz/FuzzPairCorr.
func FuzzPairCorr(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := rowsFromBytes(data)
		asm := useAsm
		defer func() { useAsm = asm }()
		for _, useAsm = range []bool{false, asm} {
			assertKernelContract(t, [][]float64{a, b}, len(a))
		}
	})
}
