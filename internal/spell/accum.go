package spell

// SPELL's sums are exact: every term is put on a two-bin grid before it is
// added (Demmel & Nguyen's binned summation, ARITH 2013, cut to two bins),
// so float64 adds the terms without rounding and no split of the datasets
// or order of the additions shows. split rounds a term t to hi, a multiple
// of 2^-30, and puts the rest on lo, a multiple of 2^-70: the one rounding,
// ≤2^-71 a term. As |t| ≤ FisherZ(1−1e-7) ≈ 8.41 < 2^4, a sum of hi stays
// below 2^23, where every multiple of 2^-30 is a float64, and a sum of lo
// over at most MaxDatasets = 2^14 terms of |lo| ≤ 2^-31 stays within 2^53
// multiples of 2^-70. finish folds hi+lo once per gene before it divides.

// MaxDatasets is the most datasets a search may add up: an engine or a
// Merge union holding more is refused (see the grid above).
const MaxDatasets = 1 << 14

// split puts t on the grid. The constants are 1.5·2^22 and 1.5·2^-18: a
// sum with either lands in a binade whose ulp is 2^-30 or 2^-70.
func split(t float64) (hi, lo float64) {
	hi = (t + 0x1.8p22) - 0x1.8p22
	return hi, ((t - hi) + 0x1.8p-18) - 0x1.8p-18
}

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

func newAccum(numGenes int) accum {
	var a accum
	buf := make([]float64, len(a)*numGenes)
	for k := range a {
		a[k] = buf[k*numGenes : (k+1)*numGenes : (k+1)*numGenes]
	}
	return a
}
