package stats

import "math"

// Pearson returns the centered Pearson correlation coefficient between xs
// and ys, computed over positions where both values are observed. It
// returns NaN when fewer than two paired observations exist or either
// vector is constant over the paired positions.
//
// This is the similarity measure Cluster 3.0 calls "correlation (centered)"
// and is the default gene-gene similarity throughout the paper's tool
// chain.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	var sx, sy float64
	cnt := 0
	for i := 0; i < n; i++ {
		if math.IsNaN(xs[i]) || math.IsNaN(ys[i]) {
			continue
		}
		sx += xs[i]
		sy += ys[i]
		cnt++
	}
	if cnt < 2 {
		return math.NaN()
	}
	mx, my := sx/float64(cnt), sy/float64(cnt)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		if math.IsNaN(xs[i]) || math.IsNaN(ys[i]) {
			continue
		}
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Guard against floating point drift outside [-1, 1].
	return Clamp(r, -1, 1)
}

// FisherZ returns the Fisher z-transform atanh(r), the variance-stabilizing
// transform SPELL uses before averaging correlations across conditions.
// Correlations at ±1 are nudged inward to keep the transform finite.
func FisherZ(r float64) float64 {
	if math.IsNaN(r) {
		return math.NaN()
	}
	const eps = 1e-7
	r = Clamp(r, -1+eps, 1-eps)
	return 0.5 * math.Log((1+r)/(1-r))
}

// MeanPairwiseCorrelation returns the average Pearson correlation over all
// unordered pairs of the given rows, skipping undefined pairs. It is the
// cluster-tightness score used by the Section-4 case-study reproduction.
// NaN when no pair is defined.
func MeanPairwiseCorrelation(rows [][]float64) float64 {
	var s float64
	cnt := 0
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			r := Pearson(rows[i], rows[j])
			if !math.IsNaN(r) {
				s += r
				cnt++
			}
		}
	}
	if cnt == 0 {
		return math.NaN()
	}
	return s / float64(cnt)
}
