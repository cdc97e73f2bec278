package core

import "math"

// The tile pyramid: mipmap-style row aggregation for viewport serving.
//
// Level 0 is the pane's display-order rows themselves. Level k (k >= 1)
// collapses each run of 2^k consecutive display rows into one aggregate row
// whose value per column is the NaN-aware mean of the observed values in
// the run — exactly what RenderHeatmap's global regime would compute on the
// fly, but paid once per pane instead of once per tile. A zoomed-out tile
// over [from, to) at level k touches (to-from)/2^k slab rows instead of
// to-from raw rows.

const (
	// DefaultPyramidMinRows stops level generation once a level would drop
	// below this many rows: coarser levels than a single tile's pixel
	// height buy nothing.
	DefaultPyramidMinRows = 64
	// maxPyramidLevels bounds the level count (2^15 rows per aggregate row
	// is beyond any real compendium).
	maxPyramidLevels = 16
)

// NumPyramidLevels returns how many pyramid levels (including level 0) a
// pane with nRows display rows carries. Pure: usable for request
// validation and auto-level selection without forcing a pyramid build.
func NumPyramidLevels(nRows int) int {
	levels := 1
	for r := nRows / 2; r >= DefaultPyramidMinRows && levels < maxPyramidLevels; r /= 2 {
		levels++
	}
	return levels
}

// PyramidOptions configure Pyramid construction. It carries no options;
// the type stays only because bench/verify.go, which a benchmarked change
// may not edit, writes it (ROADMAP item 1(d)).
type PyramidOptions struct{}

// Slab is one pyramid level's row-major matrix view. Row slices are
// three-index headers into shared storage: callers may not append to or
// mutate them.
type Slab struct {
	// K is the aggregation level: each slab row summarizes 2^K display rows.
	K     int
	NRows int
	NCols int
	F64   [][]float64
}

// Pyramid holds every aggregation level for one display order. It is
// immutable once built; ClusteredDataset.Pyramid caches one per pane and
// rebuilds on display-order changes.
type Pyramid struct {
	nRows  int
	nCols  int
	levels []Slab
}

// Level returns the slab for level k, clamped to the available range.
func (p *Pyramid) Level(k int) Slab {
	if k < 0 {
		k = 0
	}
	if k >= len(p.levels) {
		k = len(p.levels) - 1
	}
	return p.levels[k]
}

// buildPyramid constructs every level for the current display order.
// displayRows must already be in display order (level 0). Aggregation
// carries exact float64 sums and observation counts level-to-level, so
// level k equals the direct NaN-aware mean over its 2^k-row block up to
// float64 summation order (pairwise here vs sequential in the oracle).
func buildPyramid(displayRows [][]float64, nCols int) *Pyramid {
	n := len(displayRows)
	nl := NumPyramidLevels(n)
	p := &Pyramid{nRows: n, nCols: nCols, levels: make([]Slab, 0, nl)}
	p.levels = append(p.levels, Slab{K: 0, NRows: n, NCols: nCols, F64: displayRows})

	// Running per-column (sum, count) for the level under construction.
	curRows := n
	var sum []float64
	var cnt []int32
	for k := 1; k < nl; k++ {
		nextRows := (curRows + 1) / 2
		nextSum := make([]float64, nextRows*nCols)
		nextCnt := make([]int32, nextRows*nCols)
		if k == 1 {
			// Seed from the raw display rows: pairs of level-0 rows.
			for i := 0; i < nextRows; i++ {
				ds, dc := nextSum[i*nCols:(i+1)*nCols], nextCnt[i*nCols:(i+1)*nCols]
				for j := 2 * i; j < 2*i+2 && j < n; j++ {
					row := displayRows[j]
					for c := 0; c < nCols && c < len(row); c++ {
						if v := row[c]; !math.IsNaN(v) {
							ds[c] += v
							dc[c]++
						}
					}
				}
			}
		} else {
			for i := 0; i < nextRows; i++ {
				ds, dc := nextSum[i*nCols:(i+1)*nCols], nextCnt[i*nCols:(i+1)*nCols]
				for j := 2 * i; j < 2*i+2 && j < curRows; j++ {
					ss, sc := sum[j*nCols:(j+1)*nCols], cnt[j*nCols:(j+1)*nCols]
					for c := 0; c < nCols; c++ {
						ds[c] += ss[c]
						dc[c] += sc[c]
					}
				}
			}
		}
		sum, cnt, curRows = nextSum, nextCnt, nextRows
		p.levels = append(p.levels, emitLevel(k, nextRows, nCols, nextSum, nextCnt))
	}
	return p
}

// emitLevel materializes one contiguous slab from accumulated sums/counts.
func emitLevel(k, nRows, nCols int, sum []float64, cnt []int32) Slab {
	s := Slab{K: k, NRows: nRows, NCols: nCols}
	vals := make([]float64, nRows*nCols)
	for i := range vals {
		if cnt[i] > 0 {
			vals[i] = sum[i] / float64(cnt[i])
		} else {
			vals[i] = math.NaN()
		}
	}
	s.F64 = make([][]float64, nRows)
	for i := range s.F64 {
		s.F64[i] = vals[i*nCols : (i+1)*nCols : (i+1)*nCols]
	}
	return s
}
