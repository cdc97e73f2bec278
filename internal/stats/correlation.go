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

// PearsonUncentered returns the uncentered Pearson correlation (the cosine
// of the angle between the two vectors), over positions where both values
// are observed. Cluster 3.0 exposes this as "correlation (uncentered)"; it
// treats a zero baseline as meaningful, which suits log-ratio expression
// data.
func PearsonUncentered(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	var sxy, sxx, syy float64
	cnt := 0
	for i := 0; i < n; i++ {
		if math.IsNaN(xs[i]) || math.IsNaN(ys[i]) {
			continue
		}
		sxy += xs[i] * ys[i]
		sxx += xs[i] * xs[i]
		syy += ys[i] * ys[i]
		cnt++
	}
	if cnt == 0 || sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return Clamp(sxy/math.Sqrt(sxx*syy), -1, 1)
}

// Spearman returns the Spearman rank correlation between xs and ys over
// positions where both are observed: the Pearson correlation of the
// mid-ranks. Ties receive averaged ranks.
func Spearman(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	px := make([]float64, 0, n)
	py := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if math.IsNaN(xs[i]) || math.IsNaN(ys[i]) {
			continue
		}
		px = append(px, xs[i])
		py = append(py, ys[i])
	}
	if len(px) < 2 {
		return math.NaN()
	}
	return Pearson(Ranks(px), Ranks(py))
}

// Euclidean returns the Euclidean distance between xs and ys over positions
// where both are observed, rescaled by sqrt(n/observed) so vectors with
// different missingness remain comparable. NaN when nothing is paired.
func Euclidean(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	var ss float64
	cnt := 0
	for i := 0; i < n; i++ {
		if math.IsNaN(xs[i]) || math.IsNaN(ys[i]) {
			continue
		}
		d := xs[i] - ys[i]
		ss += d * d
		cnt++
	}
	if cnt == 0 {
		return math.NaN()
	}
	return math.Sqrt(ss * float64(n) / float64(cnt))
}

// Manhattan returns the city-block distance over paired observed positions,
// rescaled for missingness like Euclidean.
func Manhattan(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	var s float64
	cnt := 0
	for i := 0; i < n; i++ {
		if math.IsNaN(xs[i]) || math.IsNaN(ys[i]) {
			continue
		}
		s += math.Abs(xs[i] - ys[i])
		cnt++
	}
	if cnt == 0 {
		return math.NaN()
	}
	return s * float64(n) / float64(cnt)
}

// Ranks returns the 1-based mid-ranks of xs. Missing values receive NaN
// ranks and do not influence the ranks of observed values. Tied values all
// receive the average of the ranks they span, the standard treatment for
// Spearman correlation.
func Ranks(xs []float64) []float64 {
	type iv struct {
		idx int
		v   float64
	}
	obs := make([]iv, 0, len(xs))
	for i, v := range xs {
		if !math.IsNaN(v) {
			obs = append(obs, iv{i, v})
		}
	}
	// Insertion sort by value; rank vectors are short (per-gene rows).
	for i := 1; i < len(obs); i++ {
		e := obs[i]
		j := i - 1
		for j >= 0 && obs[j].v > e.v {
			obs[j+1] = obs[j]
			j--
		}
		obs[j+1] = e
	}
	out := make([]float64, len(xs))
	for i := range out {
		out[i] = math.NaN()
	}
	i := 0
	for i < len(obs) {
		j := i
		for j+1 < len(obs) && obs[j+1].v == obs[i].v {
			j++
		}
		// Positions i..j are tied; each gets the mean 1-based rank.
		mean := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[obs[k].idx] = mean
		}
		i = j + 1
	}
	return out
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
