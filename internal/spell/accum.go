package spell

// accum is the pair of dense gene-score vectors of one search, indexed by
// global gene id. Stage 2 gives every worker a disjoint range of the gene
// index (see scan), so the hot accumulation loop never takes a lock, never
// hashes a string, and leaves nothing to merge.
type accum struct {
	score  []float64 // sum over datasets of weight[di] * meanCorr(gene, query)
	weight []float64 // sum over datasets of weight[di] where the gene scored
}

func newAccum(numGenes int) *accum {
	return &accum{
		score:  make([]float64, numGenes),
		weight: make([]float64, numGenes),
	}
}

// add accumulates one gene's contribution from one dataset.
func (a *accum) add(gid int32, w, meanCorr float64) {
	a.score[gid] += w * meanCorr
	a.weight[gid] += w
}
