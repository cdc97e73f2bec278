package stats

import "math"

// This file holds the dense fast paths behind the clustering kernel's
// per-pair tier (internal/cluster: uncentered and rank correlation) and the
// z-scoring both kernels store rows by. Unlike the rest of the package, Dot
// does not skip missing values: clustering proves rows complete with a
// per-row mask and prepares them with UnitNormInto or CenterUnitNormInto,
// after which the correlation of two such rows is exactly their dot product.
// Checking NaN per element would throw away most of the win. (Pearson itself,
// for SPELL and for clustering, runs on internal/tilecorr, which handles
// missing cells by correction instead of by mask.)

// Dot returns the dense dot product of xs and ys over the shorter common
// length. Missing values are NOT skipped: neither vector may hold a NaN.
// The loop runs four independent accumulators so the adds pipeline; the
// grouping of the final reduction is fixed, keeping results deterministic.
func Dot(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	xs, ys = xs[:n], ys[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += xs[i] * ys[i]
		s1 += xs[i+1] * ys[i+1]
		s2 += xs[i+2] * ys[i+2]
		s3 += xs[i+3] * ys[i+3]
	}
	for ; i < n; i++ {
		s0 += xs[i] * ys[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// CenterUnitNormInto writes the centered (mean-zero), unit-Euclidean-norm
// form of xs into dst and reports whether that form exists: it returns
// false — leaving dst in an unspecified state — when xs has a missing
// value, fewer than two entries, or zero variance. When it returns true,
// Pearson(a, b) == Dot(da, db) for any two rows prepared this way (up to
// floating-point rounding), which is what lets the clustering kernel
// replace the pairwise-NaN rank correlation with a single dot product on
// complete rows.
func CenterUnitNormInto(dst, xs []float64) bool {
	if len(xs) < 2 || len(dst) < len(xs) {
		return false
	}
	sum := 0.0
	for _, v := range xs {
		if math.IsNaN(v) {
			return false
		}
		sum += v
	}
	m := sum / float64(len(xs))
	ss := 0.0
	for i, v := range xs {
		d := v - m
		dst[i] = d
		ss += d * d
	}
	if ss == 0 {
		return false
	}
	inv := 1 / math.Sqrt(ss)
	for i := range xs {
		dst[i] *= inv
	}
	return true
}

// CenterUnitNorm is CenterUnitNormInto with a freshly allocated
// destination; it returns nil, false when the normalized form is undefined.
func CenterUnitNorm(xs []float64) ([]float64, bool) {
	dst := make([]float64, len(xs))
	if !CenterUnitNormInto(dst, xs) {
		return nil, false
	}
	return dst, true
}

// UnitNormInto writes xs scaled to unit Euclidean norm into dst — no
// centering — and reports whether that form exists: it returns false,
// leaving dst in an unspecified state, when xs is empty, has a missing
// value, or has zero norm. When it returns true, PearsonUncentered(a, b) ==
// Dot(ua, ub) for any two rows prepared this way (up to floating-point
// rounding): the cosine-distance analogue of CenterUnitNormInto, used by
// the clustering kernel's uncentered fast path.
func UnitNormInto(dst, xs []float64) bool {
	if len(xs) == 0 || len(dst) < len(xs) {
		return false
	}
	ss := 0.0
	for _, v := range xs {
		if math.IsNaN(v) {
			return false
		}
		ss += v * v
	}
	if ss == 0 {
		return false
	}
	inv := 1 / math.Sqrt(ss)
	for i, v := range xs {
		dst[i] = v * inv
	}
	return true
}

// ZScoresInto is ZScores writing into a caller-provided slice (len(dst)
// must be at least len(xs)), so bulk preprocessing can fill one contiguous
// slab without a per-row allocation.
func ZScoresInto(dst, xs []float64) {
	m := Mean(xs)
	sd := StdDev(xs)
	for i, v := range xs {
		switch {
		case math.IsNaN(v):
			dst[i] = math.NaN()
		case math.IsNaN(sd) || sd == 0:
			dst[i] = 0
		default:
			dst[i] = (v - m) / sd
		}
	}
}
