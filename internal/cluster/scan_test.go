package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// nearestLoop is the chain's scan as the scalar loop: the first strict
// minimum below the seed row[best], or best.
func nearestLoop(row []float64, best int) int {
	bd := row[best]
	for j, d := range row {
		if d < bd {
			bd, best = d, j
		}
	}
	return best
}

// scanCells are the values a scanned row is drawn from: ties, both zeros,
// NaN, the +Inf of tombstones and the diagonal, and −Inf.
var scanCells = []float64{math.Copysign(0, -1), 0, 0.25, 0.5, 0.5, 1, 2, math.NaN(), math.Inf(1), math.Inf(1), math.Inf(-1)}

// assertScan holds nearest on row from seed best to the scalar loop, and
// both skip routines this build has to skipBelow's contract from every
// start against the seed's value.
func assertScan(t testing.TB, row []float64, best int) {
	t.Helper()
	if got, want := nearest(row, best), nearestLoop(row, best); got != want {
		t.Fatalf("row %v from %d: nearest = %d, the scalar loop %d", row, best, got, want)
	}
	skips := map[string]func([]float64, int, float64) int{"go": skipGo}
	if vectorScan {
		skips["avx2"] = skipAsm
	}
	bd := row[best]
	for name, skip := range skips {
		for j := 0; j <= len(row); j++ {
			got := skip(row, j, bd)
			if got < j || got > len(row) {
				t.Fatalf("%s: row %v from %d: skipped to %d", name, row, j, got)
			}
			for k := j; k < got; k++ {
				if row[k] < bd {
					t.Fatalf("%s: row %v from %d: skipped to %d past cell %d = %v < %v", name, row, j, got, k, row[k], bd)
				}
			}
		}
	}
}

// TestNearestMatchesScalarLoop holds nearest to the scalar loop, and the
// skip routines to their contract, on random rows: widths 1-100, most not
// a multiple of any vector or block length, of cells drawn from scanCells
// or gaussian; rows all +Inf, all NaN, all one value; every seed position.
func TestNearestMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for iter := 0; iter < 2000; iter++ {
		w := 1 + rng.Intn(100)
		row := make([]float64, w)
		for j := range row {
			if iter%2 == 0 {
				row[j] = scanCells[rng.Intn(len(scanCells))]
			} else {
				row[j] = rng.NormFloat64()
			}
		}
		switch iter % 10 {
		case 1:
			for j := range row {
				row[j] = math.Inf(1)
			}
		case 3:
			for j := range row {
				row[j] = math.NaN()
			}
		case 5:
			for j := range row {
				row[j] = 0.5
			}
		}
		for _, best := range []int{0, w - 1, rng.Intn(w)} {
			assertScan(t, row, best)
		}
	}
}

// FuzzNearest holds nearest to the scalar loop on a row decoded from the
// input — one cell a byte, scanCells indexed by its low nibble, a byte
// with the high nibble set a small integer (ties) — seeded at the cell
// byte 0 names. Its seeds, in testdata/fuzz/FuzzNearest, hold ties, ±0,
// NaN (the seed's own too), +Inf tombstones, an all-+Inf row and widths
// off every vector length.
func FuzzNearest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		row := make([]float64, len(data)-1)
		for j, b := range data[1:] {
			if b>>4 != 0 {
				row[j] = float64(b >> 4)
			} else {
				row[j] = scanCells[int(b)%len(scanCells)]
			}
		}
		assertScan(t, row, int(data[0])%len(row))
	})
}
