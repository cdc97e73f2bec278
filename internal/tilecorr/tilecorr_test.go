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

// underEachDot runs f as the subtests "go" and "avx2-fma": under the Go
// routines, and under the assembly ones where start-up selected them.
func underEachDot(t *testing.T, f func(t *testing.T)) {
	asm := useAsm
	defer func() { useAsm = asm }()
	t.Run("go", func(t *testing.T) {
		useAsm = false
		f(t)
	})
	t.Run("avx2-fma", func(t *testing.T) {
		if !asm {
			t.Skip("no AVX2+FMA routines in this build or on this CPU")
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
		asm := useAsm
		defer func() { useAsm = asm }()
		for _, useAsm = range []bool{false, asm} {
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
// blockCase — under the routine useAsm selects. It holds the call to what
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
	asm := useAsm
	defer func() { useAsm = asm }()
	z, _, _ := q.Block(0, s.NExp())
	var dots [BlockRows * TileRows]float64
	Dot(&dots, s.Tile(1), z, s.NExp())
	useAsm = false
	goOut, goFlags := finishChecked(t, s, q, all, &dots)
	if !asm {
		return
	}
	useAsm = true
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
	if !useAsm {
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

// assertScoreTile holds ScoreTile on tile t of a scoreCase, under the routine
// useAsm selects, to what a caller computes block by block from Dot and
// FinishBlock under the same routine: it flags a lane exactly when some
// block flags a pair, only lanes some block flags; and where it flags none,
// each real lane's sum and count of the defined correlations are the block
// by block Go sum's, bit for bit. The call writes its 16 outputs and nothing
// else.
func assertScoreTile(t testing.TB, s *Tiles, q *Query, tl int) {
	t.Helper()
	nExp := s.NExp()
	var wantSum, wantN [TileRows]float64
	var wantFlags uint8
	var dots, corr [BlockRows * TileRows]float64
	for b := 0; b < q.Blocks(); b++ {
		z, _, live := q.Block(b, nExp)
		Dot(&dots, s.Tile(tl), z, nExp)
		f := s.FinishBlock(&corr, &dots, tl, q, b)
		for k := 0; k < live; k++ {
			wantFlags |= uint8(f >> (TileRows * k))
			for j, c := range corr[TileRows*k : TileRows*(k+1)] {
				if !math.IsNaN(c) {
					wantSum[j] += c
					wantN[j]++
				}
			}
		}
	}

	inputs := func() []any {
		return []any{slices.Clone(s.zt), slices.Clone(s.t1), slices.Clone(s.t2), slices.Clone(s.miss), slices.Clone(q.Buf), slices.Clone(q.Rows), unitLanes}
	}
	was := inputs()
	const sentinel = 12345.678
	var got struct {
		before [4]float64
		sum    [TileRows]float64
		mid    [4]float64
		n      [TileRows]float64
		after  [4]float64
	}
	for _, cells := range [][]float64{got.before[:], got.mid[:], got.after[:]} {
		for i := range cells {
			cells[i] = sentinel
		}
	}
	flagged := s.ScoreTile(&got.sum, &got.n, tl, q)
	for _, c := range slices.Concat(got.before[:], got.mid[:], got.after[:]) {
		if c != sentinel {
			t.Fatalf("%s: ScoreTile wrote outside its 16 outputs", KernelName())
		}
	}
	if !reflect.DeepEqual(inputs(), was) {
		t.Fatalf("%s: ScoreTile wrote to its inputs", KernelName())
	}
	if (flagged == 0) != (wantFlags == 0) || flagged&^wantFlags != 0 {
		t.Fatalf("%s: ScoreTile flags lanes %08b, the blocks flag %08b", KernelName(), flagged, wantFlags)
	}
	if flagged != 0 {
		return
	}
	for j := 0; j < s.rows-TileRows*tl; j++ {
		if math.Float64bits(got.sum[j]) != math.Float64bits(wantSum[j]) || got.n[j] != wantN[j] {
			t.Fatalf("%s: lane %d sums %v over %v correlations, the blocks %v over %v", KernelName(), j, got.sum[j], got.n[j], wantSum[j], wantN[j])
		}
	}
}

// TestScoreTileMatchesBlocks holds ScoreTile to the block-by-block Go sum,
// under both routines, on random tiles of 1-8 rows against queries of 1-9
// rows — a block with dead rows, a lone row, two full blocks — of 0-70
// cells, with every value shape, missing cells at 0-60%, and among the
// rows of every fourth case an all-missing one, a constant one and one
// sharing only two cells with the others.
func TestScoreTileMatchesBlocks(t *testing.T) {
	underEachDot(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(49))
		for iter := 0; iter < 3000; iter++ {
			nExp := 8 + rng.Intn(63)
			if iter%8 == 0 {
				nExp = rng.Intn(8)
			}
			missing := []float64{0, 0.02, 0.15, 0.3, 0.6}[rng.Intn(5)]
			rows := randomRows(rng, 2+rng.Intn(17), nExp, missing)
			for _, row := range rows {
				if rng.Intn(8) == 0 {
					reshape(rng, row)
				}
			}
			if nExp >= 3 && len(rows) > 3 && iter%4 == 0 {
				for i := range rows[1] {
					rows[1][i], rows[2][i], rows[3][i] = nan, 0.5, nan // all missing; constant
				}
				rows[3][0], rows[3][2] = 1, -1 // shares two cells with every row observing them
			}
			rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
			split := 1 + rng.Intn(min(TileRows, len(rows)-1))
			queryRows := rows[split:]
			if len(queryRows) > 9 {
				queryRows = queryRows[:9]
			}
			s, q, tl := scoreCase(rows[:split], queryRows, nExp, rng.Intn(8) == 0)
			assertScoreTile(t, s, q, tl)
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

// FuzzScoreTile holds ScoreTile to Dot, FinishBlock and the Go sum, block by
// block, under both routines. Its seeds, in testdata/fuzz/FuzzScoreTile,
// hold an all-missing row, a constant row, rows sharing only two cells and
// the diagonal pair.
func FuzzScoreTile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tileRows, queryRows, nExp, self := scoreFromBytes(data)
		asm := useAsm
		defer func() { useAsm = asm }()
		for _, useAsm = range []bool{false, asm} {
			s, q, tl := scoreCase(tileRows, queryRows, nExp, self)
			assertScoreTile(t, s, q, tl)
		}
	})
}

// TestQueryCheckedAtGather: the assembly reads a query's cells at its rows'
// missing columns, so the kernel meets only a query Gather checked against
// the tiles' width. Gather refuses a row of wider tiles; FinishBlock and
// ScoreTile refuse a query never gathered, one gathered by tiles of another
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
	var sum, n [TileRows]float64
	var dots, out [BlockRows * TileRows]float64
	kernel := func(s *Tiles, q *Query) {
		panics("FinishBlock", func() { s.FinishBlock(&out, &dots, 0, q, 0) })
		panics("ScoreTile", func() { s.ScoreTile(&sum, &n, 0, q) })
	}
	panics("Gather of a wider row", func() {
		narrow.Gather(&Query{Rows: []Row{wideRow}, Buf: make([]float64, QueryCells(1, 12))})
	})
	kernel(narrow, &Query{Rows: []Row{narrow.Row(1)}, Buf: make([]float64, QueryCells(1, 10))})
	q := &Query{Rows: []Row{narrow.Row(1)}, Buf: make([]float64, QueryCells(1, 12))}
	narrow.Gather(q)
	kernel(wide, q)
	q.Rows = append(q.Rows, narrow.Row(2), narrow.Row(3), narrow.Row(4), narrow.Row(5))
	kernel(narrow, q)
}
