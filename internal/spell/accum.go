package spell

import (
	"math"
	"sync"
	"sync/atomic"
)

// SPELL's sums are exact: every term is put on a two-bin grid before it is
// added (Demmel & Nguyen's binned summation, ARITH 2013, cut to two bins),
// so float64 adds the terms without rounding and no split of the datasets
// or order of the additions shows. tilecorr.Split (the kernel's range scan
// adds its terms with it) rounds a term t to hi, a multiple of 2^-30, and
// puts the rest on lo, a multiple of 2^-70: the one rounding, ≤2^-71 a term. As |t| ≤ FisherZ(1−1e-7) ≈ 8.41 < 2^4, a sum of hi stays
// below 2^23, where every multiple of 2^-30 is a float64, and a sum of lo
// over at most MaxDatasets = 2^14 terms of |lo| ≤ 2^-31 stays within 2^53
// multiples of 2^-70. finish folds hi+lo once per gene before it divides.

// MaxDatasets is the most datasets a search may add up: an engine or a
// Merge union holding more is refused (see the grid above).
const MaxDatasets = 1 << 14

// The accumulator columns, in the order a Partial and its frame hold them.
const (
	sumHi = iota // Σ c_d·m_{g,d}, hi and lo
	sumLo
	cntHi // Σ c_d, hi and lo
	cntLo
)

// accum is the dense gene-score accumulator of one search, indexed by
// global gene id: the four grid columns. Stage 2 gives every worker a
// disjoint range of the gene index (see scan), so the hot accumulation loop
// never takes a lock, never hashes a string, and leaves nothing to merge.
type accum [4][]float64

// columnPool recycles the four-column float buffers a search moves through:
// a scan's accumulator, a decoded frame's columns and Merge's union, each
// 4 × 8 B × genes (192 KB at paper scale). Each buffer has one owner, who
// returns it once nothing reads it (Partial.Release): on a shard the handler
// once the answer's frames are written, on a coordinator its searchRound
// once Merge returns, in Engine.searchRound once finish returns, and in
// Merge itself the union's.
var columnPool sync.Pool // of *[]float64

// poisonReleased, set by tests, fills every buffer released to the pool with
// NaN, so that a reader who outlives the owner's release reads NaN rather
// than the next search's numbers.
var poisonReleased atomic.Bool

// pooledColumns cuts four columns of n out of one pooled buffer, zeroed when
// zero is set, and returns the buffer for the owner to release.
func pooledColumns(n int, zero bool) (accum, *[]float64) {
	buf, _ := columnPool.Get().(*[]float64)
	if buf == nil || cap(*buf) < 4*n {
		buf = &[]float64{}
		*buf = make([]float64, 4*n)
	} else if *buf = (*buf)[:4*n]; zero {
		clear(*buf)
	}
	var a accum
	for k := range a {
		a[k] = (*buf)[k*n : (k+1)*n : (k+1)*n]
	}
	return a, buf
}

// releaseColumns returns buf (nil: nothing) to the pool.
func releaseColumns(buf *[]float64) {
	if buf == nil {
		return
	}
	if poisonReleased.Load() {
		for i := range *buf {
			(*buf)[i] = math.NaN()
		}
	}
	columnPool.Put(buf)
}
