package tilecorr

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"forestview/internal/stats"
)

var nan = math.NaN()

// best is the routine set start-up chose: the tests run every one up to it.
var best = kernel

// underEachDot runs f as the subtests "go" and "avx2-fma": under the Go
// routines, and under the AVX2 ones where start-up found the CPU has them.
func underEachDot(t *testing.T, f func(t *testing.T)) {
	underEach(t, avx2Kernel, f)
}

// underEachScan runs f under every routine ScoreRange has: underEachDot's
// two and "avx512".
func underEachScan(t *testing.T, f func(t *testing.T)) {
	underEach(t, avx512Kernel, f)
}

func underEach(t *testing.T, last int, f func(t *testing.T)) {
	defer func() { kernel = best }()
	for k := goKernel; k <= last; k++ {
		kernel = k
		t.Run(KernelName(), func(t *testing.T) {
			if k > best {
				t.Skipf("no %s routines in this build or on this CPU", KernelName())
			}
			f(t)
		})
	}
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
	if best < avx2Kernel {
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
			dotGo(&want, tile, qz, nExp, BlockRows)
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
// restored is stats.ZScoresInto of the row given, bit for bit.
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
			got, want := s.AppendZ(nil, r), make([]float64, len(row))
			stats.ZScoresInto(want, row)
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

// assertPair holds one pair to the kernel's contract against stats.Pearson
// on the rows as given: a pair the finish vouches for is NaN exactly when
// fewer than two cells are shared and within 1e-12 of stats.Pearson
// otherwise; and every pair that shares two cells, that stats.Pearson calls
// undefined, or that correlates at ±1, is flagged.
func assertPair(t testing.TB, a, c []float64, got float64, flagged bool, i, j int) {
	t.Helper()
	joint := 0
	for e := range a {
		if !math.IsNaN(a[e]) && !math.IsNaN(c[e]) {
			joint++
		}
	}
	want := stats.Pearson(a, c)
	if flagged {
		if joint < 2 {
			t.Fatalf("rows %d and %d share %d cells and were flagged: NaN is certain", i, j, joint)
		}
		return
	}
	if joint == 2 || joint > 2 && !(math.Abs(want) < 1-1e-13) {
		t.Fatalf("rows %d and %d (%d joint cells, stats.Pearson %v) were not flagged\na=%v\nb=%v", i, j, joint, want, a, c)
	}
	if math.IsNaN(got) != (joint < 2) || math.Abs(got-want) > 1e-12 {
		t.Fatalf("rows %d and %d: kernel = %v, stats.Pearson = %v (diff %g)\na=%v\nb=%v", i, j, got, want, math.Abs(got-want), a, c)
	}
}

// assertKernelContract tiles rows, meets every block of rows with every
// tile the way the callers do — gathered, Dot, FinishBlock — and holds each
// pair to assertPair, and the flags to the real pairs.
func assertKernelContract(t testing.TB, rows [][]float64, nExp int) {
	t.Helper()
	s := New(rows, nExp)
	q := Query{Buf: make([]float64, QueryCells(len(rows), nExp))}
	for r := range rows {
		q.Rows = append(q.Rows, s.Row(r))
	}
	s.Gather(&q)
	var dots, rs [BlockRows * TileRows]float64
	for b := 0; b < q.Blocks(); b++ {
		z, _, rowsLive := q.Block(b, nExp)
		for tl := 0; tl*TileRows < len(rows); tl++ {
			Dot(&dots, s.Tile(tl), z, nExp)
			flagged := s.FinishBlock(&rs, &dots, tl, &q, b)
			live := min(TileRows, len(rows)-tl*TileRows)
			for k := 0; k < BlockRows; k++ {
				row := flagged >> (TileRows * k) & (1<<TileRows - 1)
				if k >= rowsLive && row != 0 || row>>live != 0 {
					t.Fatalf("block %d, tile %d: pairs past the %d live rows and %d live lanes flagged: %032b", b, tl, rowsLive, live, flagged)
				}
				if k >= rowsLive {
					continue
				}
				i := b*BlockRows + k
				for j := 0; j < live; j++ {
					assertPair(t, rows[i], rows[tl*TileRows+j], rs[k*TileRows+j], row>>j&1 != 0, i, tl*TileRows+j)
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
				reshape(rng, row)
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

// reshape gives a random row one of four value shapes: gaussian as drawn,
// spiked, offset, or quantized — the last makes constant joint subsets and
// exact ±1 common.
func reshape(rng *rand.Rand, row []float64) {
	switch shape := rng.Intn(4); shape {
	case 1:
		for i := range row {
			row[i] *= 0.01
			if rng.Intn(len(row)) == 0 {
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
// round and under both routines. Its seeds live in
// testdata/fuzz/FuzzPairCorr.
func FuzzPairCorr(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := rowsFromBytes(data)
		defer func() { kernel = best }()
		for _, kernel = range []int{goKernel, min(best, avx2Kernel)} {
			assertKernelContract(t, [][]float64{a, b}, len(a))
		}
	})
}

// blockCase tiles the gathered rows into tile 0 — padded to a whole tile
// with rows missing every cell — and the tile rows into tile 1, then
// gathers the block FinishBlock meets tile 1 with: the gathered rows in
// order, except that with self its first row is tile 1's row 0, whose pair
// with lane 0 is the diagonal. all is the rows as tiled.
func blockCase(gathered, tileRows [][]float64, nExp int, self bool) (s *Tiles, q *Query, all [][]float64) {
	all = append(all, gathered...)
	for len(all) < TileRows {
		row := make([]float64, nExp)
		for i := range row {
			row[i] = nan
		}
		all = append(all, row)
	}
	all = append(all, tileRows...)
	s = New(all, nExp)
	q = &Query{Buf: make([]float64, QueryCells(len(gathered), nExp))}
	for k := range gathered {
		r := k
		if self && k == 0 {
			r = TileRows
		}
		q.Rows = append(q.Rows, s.Row(r))
	}
	s.Gather(q)
	return s, q, all
}

// finishChecked runs FinishBlock on dots — tile 1 against block 0 of a
// blockCase — under the routine kernel selects. It holds the call to what
// it may write, the 32 outputs: sentinels either side of them keep their
// values and every input keeps its bits. And it holds every real pair to
// assertPair and the flags to the real pairs.
func finishChecked(t testing.TB, s *Tiles, q *Query, all [][]float64, dots *[BlockRows * TileRows]float64) (out [BlockRows * TileRows]float64, flagged uint32) {
	t.Helper()
	inputs := func() []any {
		return []any{slices.Clone(s.zt), slices.Clone(s.t1), slices.Clone(s.t2), slices.Clone(s.miss), slices.Clone(q.Buf), *dots, unitLanes}
	}
	was := inputs()
	const sentinel = 12345.678
	var got struct {
		before [4]float64
		out    [BlockRows * TileRows]float64
		after  [4]float64
	}
	for _, cells := range [][]float64{got.before[:], got.after[:]} {
		for i := range cells {
			cells[i] = sentinel
		}
	}
	flagged = s.FinishBlock(&got.out, dots, 1, q, 0)
	for _, c := range append(got.before[:], got.after[:]...) {
		if c != sentinel {
			t.Fatalf("%s: the finish wrote outside its 32 outputs", KernelName())
		}
	}
	if !reflect.DeepEqual(inputs(), was) {
		t.Fatalf("%s: the finish wrote to its inputs", KernelName())
	}
	_, _, live := q.Block(0, s.NExp())
	lanes := len(all) - TileRows
	if real := uint32(1<<lanes-1) * 0x01010101 & (uint32(1)<<(TileRows*live) - 1); flagged&^real != 0 {
		t.Fatalf("%s: pairs past the %d live rows and %d live lanes flagged: %032b", KernelName(), live, lanes, flagged)
	}
	for k, qr := range q.Rows {
		for j := 0; j < lanes; j++ {
			p := TileRows*k + j
			assertPair(t, all[qr.Index], all[TileRows+j], got.out[p], flagged>>p&1 != 0, qr.Index, TileRows+j)
		}
	}
	return got.out, flagged
}

// assertRoutinesAgree runs finishChecked on the same dots under the Go
// routine and, where this build and CPU have it, the assembly: both meet
// the contract, and where both vouch for a pair they agree to 1e-14.
func assertRoutinesAgree(t testing.TB, s *Tiles, q *Query, all [][]float64) {
	t.Helper()
	defer func() { kernel = best }()
	z, _, _ := q.Block(0, s.NExp())
	var dots [BlockRows * TileRows]float64
	Dot(&dots, s.Tile(1), z, s.NExp())
	kernel = goKernel
	goOut, goFlags := finishChecked(t, s, q, all, &dots)
	if best < avx2Kernel {
		return
	}
	kernel = avx2Kernel
	asmOut, asmFlags := finishChecked(t, s, q, all, &dots)
	for p := range goOut {
		g, a := goOut[p], asmOut[p]
		if (goFlags|asmFlags)>>p&1 == 0 && p/TileRows < len(q.Rows) && p%TileRows < len(all)-TileRows &&
			!(math.IsNaN(g) && math.IsNaN(a)) && !(math.Abs(g-a) <= 1e-14) {
			t.Fatalf("pair %d: the assembly finishes %v, the Go routine %v", p, a, g)
		}
	}
}

// TestFinishAsmMatchesGo holds the assembly finish to finishGo on random
// blocks: 1-4 live rows against a tile of 1-8 live lanes, rows of 0-120
// cells, 0-70% of them missing, the four value shapes, a ±Inf cell now and
// then and the diagonal pair in a quarter of the blocks.
func TestFinishAsmMatchesGo(t *testing.T) {
	if best < avx2Kernel {
		t.Skip("no AVX2+FMA finish routine in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(30))
	for iter := 0; iter < 4000; iter++ {
		nExp := rng.Intn(121)
		missing := 0.7 * rng.Float64()
		gathered := randomRows(rng, 1+rng.Intn(BlockRows), nExp, missing)
		tileRows := randomRows(rng, 1+rng.Intn(TileRows), nExp, missing)
		for _, row := range append(gathered, tileRows...) {
			reshape(rng, row)
			if nExp > 0 && rng.Intn(16) == 0 {
				row[rng.Intn(nExp)] = math.Inf(1 - 2*rng.Intn(2))
			}
		}
		s, q, all := blockCase(gathered, tileRows, nExp, rng.Intn(4) == 0)
		assertRoutinesAgree(t, s, q, all)
	}
}

// blockFromBytes decodes a fuzz input into a blockCase: byte 0 is the row
// length (mod 73); byte 1 the shape — 1 + bits 0-1 gathered rows, 1 + bits
// 2-4 tile rows, bit 5 the diagonal pair; then the rows, gathered rows
// first, as fuzzRows reads them.
func blockFromBytes(data []byte) (gathered, tileRows [][]float64, nExp int, self bool) {
	at := fuzzBytes(data)
	nExp, shape := int(at(0))%73, at(1)
	nGathered, nTile := 1+int(shape&3), 1+int(shape>>2&7)
	rows := fuzzRows(at, 2, nExp, nGathered+nTile)
	return rows[:nGathered], rows[nGathered:], nExp, shape>>5&1 != 0
}

// fuzzBytes reads a fuzz input byte by byte: bytes past its end are 0.
func fuzzBytes(data []byte) func(i int) byte {
	return func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
}

// fuzzRows decodes n rows of nExp cells from byte next on: each row is one
// value byte per cell (a signed eighth, with -128 for −Inf and 127 for
// +Inf) and one mask byte per eight cells (a set bit is a missing cell).
func fuzzRows(at func(int) byte, next, nExp, n int) [][]float64 {
	rows := make([][]float64, n)
	for k := range rows {
		r := make([]float64, nExp)
		for i := range r {
			switch v := int8(at(next + i)); v {
			case -128:
				r[i] = math.Inf(-1)
			case 127:
				r[i] = math.Inf(1)
			default:
				r[i] = float64(v) / 8
			}
			if at(next+nExp+i/8)>>(i%8)&1 != 0 {
				r[i] = nan
			}
		}
		next += nExp + (nExp+7)/8
		rows[k] = r
	}
	return rows
}

// FuzzFinishBlock holds one block finish to the contract under both
// routines, and the routines to each other: several lanes missing one
// column, several query rows each missing their own, which FuzzPairCorr's
// one pair of rows cannot reach. Its seeds live in
// testdata/fuzz/FuzzFinishBlock.
func FuzzFinishBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		gathered, tileRows, nExp, self := blockFromBytes(data)
		s, q, all := blockCase(gathered, tileRows, nExp, self)
		assertRoutinesAgree(t, s, q, all)
	})
}

// scoreCase tiles the query rows first, padded to whole tiles with rows
// missing every cell, then tileRows into the last tile, t; and gathers the
// query — with self, its first row is tile t's row 0, whose pair with lane 0
// is the diagonal.
func scoreCase(tileRows, queryRows [][]float64, nExp int, self bool) (s *Tiles, q *Query, t int) {
	all := slices.Clone(queryRows)
	for len(all)%TileRows != 0 {
		row := make([]float64, nExp)
		for i := range row {
			row[i] = nan
		}
		all = append(all, row)
	}
	t = len(all) / TileRows
	s = New(append(all, tileRows...), nExp)
	q = &Query{Buf: make([]float64, QueryCells(len(queryRows), nExp))}
	for k := range queryRows {
		r := k
		if self && k == 0 {
			r = TileRows * t
		}
		q.Rows = append(q.Rows, s.Row(r))
	}
	s.Gather(q)
	return s, q, t
}

// rangeCase is one ScoreRange call: rows [r0, r1) of s against q, onto a
// grid through gids at weight w.
type rangeCase struct {
	s      *Tiles
	q      *Query
	gids   []int32
	w      float64
	r0, r1 int
}

// grid returns four columns one cell longer than the largest gene index,
// every cell a random value: a row added twice, or a cell written that no
// row of the range maps to, shows.
func (c rangeCase) grid(rng *rand.Rand) (grid [4][]float64) {
	n := int(slices.Max(c.gids)) + 2
	for k := range grid {
		grid[k] = make([]float64, n)
		for g := range grid[k] {
			grid[k][g] = rng.NormFloat64()
		}
	}
	return grid
}

// reference is what ScoreRange adds and where it stops, computed tile by
// tile from Dot and FinishBlock under the routine kernel selects: each
// tile's defined correlations summed block by block in ascending row
// order; a tile where a block flags a pair of a row in the range is a stop,
// and every other tile's rows of the range are added by AddMeans.
func (c rangeCase) reference(grid *[4][]float64) (stops []int) {
	nExp := c.s.NExp()
	var dots, corr [BlockRows * TileRows]float64
	for tl := c.r0 / TileRows; TileRows*tl < c.r1; tl++ {
		lo, hi := max(c.r0, TileRows*tl), min(c.r1, TileRows*(tl+1))
		lanes := uint8(uint(1)<<(hi-TileRows*tl) - uint(1)<<(lo-TileRows*tl))
		var sum, n [TileRows]float64
		var flags uint8
		for b := 0; b < c.q.Blocks(); b++ {
			z, _, live := c.q.Block(b, nExp)
			Dot(&dots, c.s.Tile(tl), z, nExp)
			f := c.s.FinishBlock(&corr, &dots, tl, c.q, b)
			for k := 0; k < live; k++ {
				flags |= uint8(f>>(TileRows*k)) & lanes
				for j, r := range corr[TileRows*k : TileRows*(k+1)] {
					if !math.IsNaN(r) {
						sum[j] += r
						n[j]++
					}
				}
			}
		}
		if flags != 0 {
			stops = append(stops, tl)
			continue
		}
		AddMeans(grid, &sum, &n, c.gids, c.w, lo, hi)
	}
	return stops
}

// run calls ScoreRange as the scan does: after each tile it stops at, again
// from the row it says to go on from, leaving the stopped tile's rows
// unadded.
func (c rangeCase) run(grid *[4][]float64) (stops []int) {
	for r := c.r0; r < c.r1; {
		tl, next := c.s.ScoreRange(grid, c.q, c.gids, c.w, r, c.r1)
		if tl < 0 {
			break
		}
		if next <= r || next > c.r1 || next < min(c.r1, TileRows*(tl+1)) {
			panic("ScoreRange goes on from a row outside the range or before its own stop")
		}
		stops = append(stops, tl)
		r = next
	}
	return stops
}

// assertScoreRange holds ScoreRange, under the routine kernel selects, to
// the reference under the same routine — whose Dot and FinishBlock are the
// AVX2 ones under avx512 — bit for bit: it stops at the same tiles and
// leaves every grid cell with the same bits. It leaves its inputs as they
// were. Under avx512 it runs the AVX2 routine too and holds the two to each
// other's bits.
func assertScoreRange(t testing.TB, c rangeCase, rng *rand.Rand) {
	t.Helper()
	start := c.grid(rng)
	clone := func(g [4][]float64) [4][]float64 {
		for k := range g {
			g[k] = slices.Clone(g[k])
		}
		return g
	}
	inputs := func() []any {
		return []any{slices.Clone(c.s.zt), slices.Clone(c.s.t1), slices.Clone(c.s.t2), slices.Clone(c.s.miss), slices.Clone(c.q.Buf), slices.Clone(c.q.Rows), slices.Clone(c.gids), unitLanes}
	}
	was := inputs()
	got, want := clone(start), clone(start)
	gotStops, wantStops := c.run(&got), c.reference(&want)
	if !reflect.DeepEqual(inputs(), was) {
		t.Fatalf("%s: ScoreRange wrote to its inputs", KernelName())
	}
	if !slices.Equal(gotStops, wantStops) {
		t.Fatalf("%s: rows [%d, %d): ScoreRange stops at tiles %v, the blocks flag %v", KernelName(), c.r0, c.r1, gotStops, wantStops)
	}
	assertSameGrid(t, got, want, "the blocks")
	if kernel == avx512Kernel {
		kernel = avx2Kernel
		avx2 := clone(start)
		avx2Stops := c.run(&avx2)
		kernel = avx512Kernel
		if !slices.Equal(gotStops, avx2Stops) {
			t.Fatalf("avx512 stops at tiles %v, avx2-fma at %v", gotStops, avx2Stops)
		}
		assertSameGrid(t, got, avx2, "avx2-fma")
	}
}

// assertSameGrid fails unless every cell of got has the bits of want's.
func assertSameGrid(t testing.TB, got, want [4][]float64, who string) {
	t.Helper()
	for k := range got {
		for g := range got[k] {
			if math.Float64bits(got[k][g]) != math.Float64bits(want[k][g]) {
				t.Fatalf("%s: grid column %d, gene %d is %v, %s say %v", KernelName(), k, g, got[k][g], who, want[k][g])
			}
		}
	}
}

// TestScoreTileMatchesBlocks holds ScoreRange to the block-by-block sums,
// under every routine, on random cases: 1-40 rows of 0-70 cells, with every
// value shape and missing cells at 0-60%, and among them in every fourth
// case an all-missing row, a constant one and one sharing only two cells
// with the others; a range of them starting and ending anywhere; a query of
// 1-9 other rows — a block with dead rows, a lone row, two full blocks —
// with one of the range's own rows among them in every eighth case (the
// diagonal pair, flagged); gene indices with gaps and repeats now and
// then; a random weight.
func TestScoreTileMatchesBlocks(t *testing.T) {
	underEachScan(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(49))
		for iter := 0; iter < 3000; iter++ {
			nExp := 8 + rng.Intn(63)
			if iter%8 == 0 {
				nExp = rng.Intn(8)
			}
			missing := []float64{0, 0.02, 0.15, 0.3, 0.6}[rng.Intn(5)]
			n, nq := 1+rng.Intn(40), 1+rng.Intn(9)
			rows := randomRows(rng, n+nq, nExp, missing)
			for _, row := range rows {
				if rng.Intn(8) == 0 {
					reshape(rng, row)
				}
			}
			if nExp >= 3 && n > 3 && iter%4 == 0 {
				for i := range rows[1] {
					rows[1][i], rows[2][i], rows[3][i] = nan, 0.5, nan // all missing; constant
				}
				rows[3][0], rows[3][2] = 1, -1 // shares two cells with every row observing them
			}
			c := rangeCase{s: New(rows, nExp), w: rng.Float64()}
			c.r0 = rng.Intn(n)
			c.r1 = c.r0 + 1 + rng.Intn(n-c.r0)
			c.q = &Query{Buf: make([]float64, QueryCells(nq, nExp))}
			for k := range nq {
				r := n + k
				if k == 0 && iter%8 == 1 {
					r = c.r0 + rng.Intn(c.r1-c.r0)
				}
				c.q.Rows = append(c.q.Rows, c.s.Row(r))
			}
			c.s.Gather(c.q)
			for r, g := 0, int32(rng.Intn(3)); r < n+nq; r, g = r+1, g+1 {
				switch rng.Intn(12) {
				case 0, 1:
					g += 2
				case 2:
					g = max(g-1, 0) // a gene on two rows: with a gap, eight rows span eight genes
				}
				c.gids = append(c.gids, g)
			}
			assertScoreRange(t, c, rng)
		}
	})
}

// scoreFromBytes decodes a fuzz input into a scoreCase: byte 0 is the row
// length (mod 73); byte 1 the shape — 1 + bits 0-2 tile rows, 1 + bits 3-6
// (mod 9) query rows, bit 7 the diagonal pair; then the rows, tile rows
// first, as fuzzRows reads them.
func scoreFromBytes(data []byte) (tileRows, queryRows [][]float64, nExp int, self bool) {
	at := fuzzBytes(data)
	nExp, shape := int(at(0))%73, at(1)
	nTile, nQuery := 1+int(shape&7), 1+int(shape>>3&15)%9
	rows := fuzzRows(at, 2, nExp, nTile+nQuery)
	return rows[:nTile], rows[nTile:], nExp, shape>>7 != 0
}

// FuzzScoreTile holds ScoreRange over the rows of one tile — the last tile
// of a scoreCase — to Dot, FinishBlock and the Go sum, block by block,
// under every routine. Its seeds, in testdata/fuzz/FuzzScoreTile, hold an
// all-missing row, a constant row, rows sharing only two cells and the
// diagonal pair.
func FuzzScoreTile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tileRows, queryRows, nExp, self := scoreFromBytes(data)
		defer func() { kernel = best }()
		for kernel = goKernel; kernel <= best; kernel++ {
			s, q, tl := scoreCase(tileRows, queryRows, nExp, self)
			gids := make([]int32, s.rows)
			for r := range gids {
				gids[r] = int32(r)
			}
			assertScoreRange(t, rangeCase{s: s, q: q, gids: gids, w: 0.75, r0: TileRows * tl, r1: s.rows}, rand.New(rand.NewSource(int64(len(data)))))
		}
	})
}

// rangeFromBytes decodes a fuzz input into a rangeCase: byte 0 is the row
// length (mod 41) and byte 1 the row count, 1 + (mod 40); bytes 2 and 3
// the range, its first row and 1 + its length, each modulo what fits; byte
// 4 the query's size, 1 + (mod 5), and bytes 5-9 its rows, each modulo the
// row count; byte 10 the first row whose gene index skips two past its
// predecessor's (modulo 1 + the row count: none at the row count); byte 11
// the weight in 64ths; then the rows as fuzzRows reads them.
func rangeFromBytes(data []byte) rangeCase {
	at := fuzzBytes(data)
	nExp, n := int(at(0))%41, 1+int(at(1))%40
	s := New(fuzzRows(at, 12, nExp, n), nExp)
	c := rangeCase{s: s, w: float64(at(11)) / 64}
	c.r0 = int(at(2)) % n
	c.r1 = c.r0 + 1 + int(at(3))%(n-c.r0)
	nq := 1 + int(at(4))%5
	c.q = &Query{Buf: make([]float64, QueryCells(nq, nExp))}
	for k := range nq {
		c.q.Rows = append(c.q.Rows, s.Row(int(at(5+k))%n))
	}
	s.Gather(c.q)
	gap := int(at(10)) % (n + 1)
	for r := range n {
		g := r
		if r >= gap {
			g += 2
		}
		c.gids = append(c.gids, int32(g))
	}
	return c
}

// FuzzScoreRange holds one ScoreRange call over several tiles to the block
// by block sums under every routine, and the AVX-512 routine to the AVX2
// one bit for bit; a host without AVX-512 says the comparison did not run.
// Its seeds, in testdata/fuzz/FuzzScoreRange, hold an odd tile count (a
// lone last tile), ranges starting and ending mid-tile, lanes past the last
// row, queries of 1-5 rows, a flagged lane in the first and in the second
// tile of a pair, missing cells in every lane and a gap in the gene
// indices.
func FuzzScoreRange(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if best < avx512Kernel {
			t.Logf("no AVX-512 routine in this build or on this CPU: the avx512 comparison did not run (this host runs %s)", KernelName())
		}
		defer func() { kernel = best }()
		for kernel = goKernel; kernel <= best; kernel++ {
			assertScoreRange(t, rangeFromBytes(data), rand.New(rand.NewSource(int64(len(data)))))
		}
	})
}

// TestQueryCheckedAtGather: the assembly reads a query's cells at its rows'
// missing columns, so the kernel meets only a query Gather checked against
// the tiles' width. Gather refuses a row of wider tiles; FinishBlock and
// ScoreRange refuse a query never gathered, one gathered by tiles of another
// width, and one whose buffer is too short for its rows.
func TestQueryCheckedAtGather(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	narrow, wide := New(randomRows(rng, 9, 10, 0.3), 10), New(randomRows(rng, 9, 12, 0.3), 12)
	wideRow := wide.Row(0)
	for r := 0; len(wideRow.miss) == 0 || wideRow.miss[len(wideRow.miss)-1]>>3 < 10; r++ {
		wideRow = wide.Row(r) // a row missing a column narrow does not have
	}
	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	var dots, out [BlockRows * TileRows]float64
	grid := [4][]float64{make([]float64, 9), make([]float64, 9), make([]float64, 9), make([]float64, 9)}
	gids := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8}
	refused := func(s *Tiles, q *Query) {
		panics("FinishBlock", func() { s.FinishBlock(&out, &dots, 0, q, 0) })
		panics("ScoreRange", func() { s.ScoreRange(&grid, q, gids, 1, 0, 8) })
	}
	panics("Gather of a wider row", func() {
		narrow.Gather(&Query{Rows: []Row{wideRow}, Buf: make([]float64, QueryCells(1, 12))})
	})
	refused(narrow, &Query{Rows: []Row{narrow.Row(1)}, Buf: make([]float64, QueryCells(1, 10))})
	q := &Query{Rows: []Row{narrow.Row(1)}, Buf: make([]float64, QueryCells(1, 12))}
	narrow.Gather(q)
	refused(wide, q)
	q.Rows = append(q.Rows, narrow.Row(2), narrow.Row(3), narrow.Row(4), narrow.Row(5))
	refused(narrow, q)
}

// TestScoreRangeChecksGrid: under every routine, ScoreRange refuses a range
// past the tiles' rows or the gene indices, and a gene index outside the
// grid — one of eight consecutive genes and one among others, the vector
// and the scalar add of the AVX-512 routine — with a panic, not a write
// past a column.
func TestScoreRangeChecksGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	s := New(randomRows(rng, 20, 12, 0), 12)
	q := &Query{Rows: []Row{s.Row(17)}, Buf: make([]float64, QueryCells(1, 12))}
	s.Gather(q)
	underEachScan(t, func(t *testing.T) {
		for _, c := range []struct {
			name   string
			gids   []int32
			r0, r1 int
		}{
			{"past the rows", make([]int32, 24), 0, 21},
			{"past the gene indices", make([]int32, 15), 0, 16},
			{"consecutive genes past the grid", []int32{10, 11, 12, 13, 14, 15, 16, 17}, 0, 8},
			{"scattered genes past the grid", []int32{0, 2, 4, 6, 8, 10, 12, 17}, 0, 8},
			{"a negative gene index", []int32{-1, 0, 1, 2, 3, 4, 5, 6}, 0, 8},
		} {
			grid := [4][]float64{make([]float64, 17), make([]float64, 17), make([]float64, 17), make([]float64, 17)}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: ScoreRange did not panic", c.name)
					}
				}()
				s.ScoreRange(&grid, q, c.gids, 1, c.r0, c.r1)
			}()
		}
	})
}
