package tilecorr

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// distCase is one DistanceRange call: the block q of s's rows against the
// tiles from t0, into an n×n matrix.
type distCase struct {
	s  *Tiles
	q  *Query
	t0 int
}

// stopMark is what the tests write over a stopped tile's lanes below each
// row, standing in for the caller's exact distances.
const stopMark = -7.0

// start is the matrix before the call: every cell its own negative value,
// which no distance is, so a cell written that no lane below a row maps
// to, or a lane left unwritten, shows.
func (c distCase) start() []float64 {
	m := make([]float64, c.s.rows*c.s.rows)
	for i := range m {
		m[i] = -1 - float64(i)
	}
	return m
}

// below calls f for each row of the block and tile t's lanes below it.
func (c distCase) below(t int, f func(k, i, live int)) {
	for k, r := range c.q.Rows {
		if live := min(TileRows, r.Index-TileRows*t); live > 0 {
			f(k, r.Index, live)
		}
	}
}

// reference is what DistanceRange writes and where it stops, computed tile
// by tile from Dot and FinishBlock under the routine kernel selects: 1 − r
// in every lane below a row, and stopMark in all of a tile's lanes below a
// row when one of them is flagged or NaN.
func (c distCase) reference(m []float64) (stops []int) {
	n, nExp := c.s.rows, c.s.NExp()
	var dots, rs [BlockRows * TileRows]float64
	z, _, _ := c.q.Block(0, nExp)
	end := 0
	for _, r := range c.q.Rows {
		end = max(end, (r.Index+TileRows-1)/TileRows)
	}
	for t := c.t0; t < end; t++ {
		Dot(&dots, c.s.Tile(t), z, nExp)
		flagged := c.s.FinishBlock(&rs, &dots, t, c.q, 0)
		stop := false
		c.below(t, func(k, i, live int) {
			for j := range live {
				r := rs[TileRows*k+j]
				stop = stop || flagged>>(TileRows*k+j)&1 != 0 || math.IsNaN(r)
				m[i*n+TileRows*t+j] = 1 - r
			}
		})
		if stop {
			stops = append(stops, t)
			c.mark(m, t)
		}
	}
	return stops
}

// mark writes stopMark over tile t's lanes below each row.
func (c distCase) mark(m []float64, t int) {
	c.below(t, func(_, i, live int) {
		for j := range live {
			m[i*c.s.rows+TileRows*t+j] = stopMark
		}
	})
}

// run calls DistanceRange as the distance build does: after each tile it
// stops at — whose lanes it marks — again from the tile it says to go on
// from.
func (c distCase) run(m []float64) (stops []int) {
	for t := c.t0; ; {
		stop, next := c.s.DistanceRange(m, c.s.rows, c.q, t)
		if stop < 0 {
			return stops
		}
		if stop < t || next <= stop || next > stop+2 {
			panic("DistanceRange stops outside its tiles or goes on from the wrong one")
		}
		stops = append(stops, stop)
		c.mark(m, stop)
		t = next
	}
}

// assertDistanceRange holds DistanceRange, under the routine kernel
// selects, to the reference under the same routine — whose Dot and
// FinishBlock are the AVX2 ones under avx512 — bit for bit: it stops at the
// same tiles and leaves every cell of the matrix with the same bits. It
// leaves its inputs as they were. Under avx512 it runs the AVX2 routine too
// and holds the two to each other's bits.
func assertDistanceRange(t testing.TB, c distCase) {
	t.Helper()
	start := c.start()
	inputs := func() []any {
		return []any{slices.Clone(c.s.zt), slices.Clone(c.s.t1), slices.Clone(c.s.t2), slices.Clone(c.s.miss), slices.Clone(c.q.Buf), slices.Clone(c.q.Rows), unitLanes}
	}
	was := inputs()
	got, want := slices.Clone(start), slices.Clone(start)
	gotStops, wantStops := c.run(got), c.reference(want)
	if !reflect.DeepEqual(inputs(), was) {
		t.Fatalf("%s: DistanceRange wrote to its inputs", KernelName())
	}
	if !slices.Equal(gotStops, wantStops) {
		t.Fatalf("%s: tiles from %d: DistanceRange stops at %v, the tiles flag %v", KernelName(), c.t0, gotStops, wantStops)
	}
	assertSameMatrix(t, got, want, c.s.rows, "the tiles")
	if kernel == avx512Kernel {
		kernel = avx2Kernel
		avx2 := slices.Clone(start)
		avx2Stops := c.run(avx2)
		kernel = avx512Kernel
		if !slices.Equal(gotStops, avx2Stops) {
			t.Fatalf("avx512 stops at tiles %v, avx2-fma at %v", gotStops, avx2Stops)
		}
		assertSameMatrix(t, got, avx2, c.s.rows, "avx2-fma")
	}
}

// assertSameMatrix fails unless every cell of got has the bits of want's.
func assertSameMatrix(t testing.TB, got, want []float64, n int, who string) {
	t.Helper()
	for p := range got {
		if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
			t.Fatalf("%s: cell (%d, %d) is %v, %s say %v", KernelName(), p/n, p%n, got[p], who, want[p])
		}
	}
}

// TestDistanceRangeMatchesTiles holds DistanceRange to Dot, FinishBlock and
// the lane loop, under every routine, on random cases: 1-40 tiles of rows
// (an odd count every other case), the last ending anywhere, rows of 0-40
// cells with every value shape and missing cells at 0-60% — in every lane
// of a tile now and then — and among them in every third case all-missing,
// constant and two-cell rows, which the finish leaves NaN or flags, in
// either tile of a pass; a block of 1-4 rows, mostly the distance build's
// (four consecutive rows from a multiple of four, whose first tile met is
// the diagonal's) and otherwise any rows; tiles from any first one.
func TestDistanceRangeMatchesTiles(t *testing.T) {
	underEachScan(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(57))
		for iter := 0; iter < 1500; iter++ {
			tiles := 1 + rng.Intn(40)
			if iter%2 == 1 && tiles%2 == 0 {
				tiles--
				tiles = max(tiles, 1)
			}
			n := TileRows*(tiles-1) + 1 + rng.Intn(TileRows)
			nExp := rng.Intn(41)
			missing := []float64{0, 0.02, 0.15, 0.3, 0.6}[rng.Intn(5)]
			rows := randomRows(rng, n, nExp, missing)
			for _, row := range rows {
				if rng.Intn(8) == 0 {
					reshape(rng, row)
				}
			}
			if nExp > 0 && iter%5 == 0 { // a column missing in every lane of a tile
				tl, e := rng.Intn(tiles), rng.Intn(nExp)
				for r := TileRows * tl; r < min(n, TileRows*(tl+1)); r++ {
					rows[r][e] = nan
				}
			}
			if nExp >= 3 && iter%3 == 0 {
				for range 1 + rng.Intn(3) {
					row := rows[rng.Intn(n)]
					switch rng.Intn(3) {
					case 0: // all missing: NaN
						for i := range row {
							row[i] = nan
						}
					case 1: // constant: flagged
						for i := range row {
							row[i] = 0.5
						}
					default: // two cells: flagged with every row observing them
						for i := range row {
							row[i] = nan
						}
						row[0], row[2] = 1, -1
					}
				}
			}
			c := distCase{s: New(rows, nExp)}
			var idx []int
			if rng.Intn(4) > 0 {
				i0 := BlockRows * rng.Intn((n+BlockRows-1)/BlockRows)
				for i := i0; i < min(i0+BlockRows, n); i++ {
					idx = append(idx, i)
				}
			} else {
				idx = rng.Perm(n)[:min(n, 1+rng.Intn(BlockRows))]
			}
			c.q = &Query{Buf: make([]float64, QueryCells(len(idx), nExp))}
			for _, i := range idx {
				c.q.Rows = append(c.q.Rows, c.s.Row(i))
			}
			c.s.Gather(c.q)
			c.t0 = rng.Intn(tiles)
			assertDistanceRange(t, c)
		}
	})
}

// distFromBytes decodes a fuzz input into a distCase: byte 0 is the row
// length (mod 41) and byte 1 the row count, 1 + (mod 96); byte 2 the
// block's size, 1 + (mod 4), and bytes 3-6 its rows, each modulo the row
// count; byte 7 the first tile, modulo the tiles; then the rows as fuzzRows
// reads them.
func distFromBytes(data []byte) distCase {
	at := fuzzBytes(data)
	nExp, n := int(at(0))%41, 1+int(at(1))%96
	s := New(fuzzRows(at, 8, nExp, n), nExp)
	c := distCase{s: s, t0: int(at(7)) % ((n + TileRows - 1) / TileRows)}
	nq := 1 + int(at(2))%BlockRows
	c.q = &Query{Buf: make([]float64, QueryCells(nq, nExp))}
	for k := range nq {
		c.q.Rows = append(c.q.Rows, s.Row(int(at(3+k))%n))
	}
	s.Gather(c.q)
	return c
}

// FuzzDistanceRange holds one DistanceRange call over its tiles to Dot,
// FinishBlock and the lane loop under every routine, and the AVX-512
// routine to the AVX2 one bit for bit; a host without AVX-512 says the
// comparison did not run. Its seeds, in testdata/fuzz/FuzzDistanceRange,
// hold a block on its diagonal tile, an odd tile count, a tile stopped in
// either place of a pass, missing cells in every lane and ±Inf cells.
func FuzzDistanceRange(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if best < avx512Kernel {
			t.Logf("no AVX-512 routine in this build or on this CPU: the avx512 comparison did not run (this host runs %s)", KernelName())
		}
		defer func() { kernel = best }()
		for kernel = goKernel; kernel <= best; kernel++ {
			assertDistanceRange(t, distFromBytes(data))
		}
	})
}

// TestDistanceRangeChecksMatrix: under every routine, DistanceRange refuses
// a block of more than BlockRows rows, a row past the tiles, a matrix too
// small for the tiles' rows or too narrow a stride, with a panic, not a
// write past the matrix.
func TestDistanceRangeChecksMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	s := New(randomRows(rng, 21, 12, 0.1), 12)
	gathered := func(idx ...int) *Query {
		q := &Query{Buf: make([]float64, QueryCells(len(idx), 12))}
		for _, i := range idx {
			q.Rows = append(q.Rows, s.Row(i))
		}
		s.Gather(q)
		return q
	}
	underEachScan(t, func(t *testing.T) {
		for _, c := range []struct {
			name   string
			q      *Query
			cells  int
			stride int
		}{
			{"five rows", gathered(16, 17, 18, 19, 20), 21 * 21, 21},
			{"a row past the tiles", gathered(20, 22), 24 * 24, 24},
			{"a matrix a row short", gathered(20), 20 * 21, 21},
			{"a narrow stride", gathered(20), 21 * 21, 20},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: DistanceRange did not panic", c.name)
					}
				}()
				s.DistanceRange(make([]float64, c.cells), c.stride, c.q, 0)
			}()
		}
	})
}
