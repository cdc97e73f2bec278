// Package stats provides the statistical substrate shared by every analysis
// engine in the ForestView reproduction: descriptive statistics, Pearson
// correlation and the Fisher z-transform, the hypergeometric distribution in
// log space, and multiple-hypothesis corrections.
//
// Microarray matrices routinely contain missing values, so every routine in
// this package treats NaN as "missing" and computes over the observed
// entries only, exactly as the Eisen-lab tool chain (Cluster 3.0, Java
// TreeView) the paper builds on did.
package stats

import (
	"math"
)

// Missing is the canonical missing-value marker used across the repository.
// All statistics skip entries for which math.IsNaN reports true.
var Missing = math.NaN()

// Mean returns the arithmetic mean of the observed values in xs.
// It returns NaN when xs has no observed values.
func Mean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, v := range xs {
		if !math.IsNaN(v) {
			s += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// Variance returns the unbiased (n-1 denominator) sample variance of the
// observed values in xs, or NaN when fewer than two values are observed.
func Variance(xs []float64) float64 {
	m := Mean(xs)
	if math.IsNaN(m) {
		return math.NaN()
	}
	ss, n := 0.0, 0
	for _, v := range xs {
		if !math.IsNaN(v) {
			d := v - m
			ss += d * d
			n++
		}
	}
	if n < 2 {
		return math.NaN()
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation of the observed values.
func StdDev(xs []float64) float64 {
	v := Variance(xs)
	if math.IsNaN(v) {
		return math.NaN()
	}
	return math.Sqrt(v)
}

// Median returns the median of the observed values in xs, or NaN when none
// are observed. The input is not modified.
func Median(xs []float64) float64 {
	obs := make([]float64, 0, len(xs))
	for _, v := range xs {
		if !math.IsNaN(v) {
			obs = append(obs, v)
		}
	}
	if len(obs) == 0 {
		return math.NaN()
	}
	insertionSort(obs)
	n := len(obs)
	if n%2 == 1 {
		return obs[n/2]
	}
	return (obs[n/2-1] + obs[n/2]) / 2
}

// insertionSort sorts small float slices in place; stats paths deal with
// short per-gene vectors where this beats the sort package's overhead and
// keeps this package dependency-light.
func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

// ZScores returns (x - mean)/stddev for every observed entry of xs, leaving
// missing entries missing. When the standard deviation is zero or undefined
// every observed entry maps to zero: a flat gene carries no signal rather
// than infinite signal.
func ZScores(xs []float64) []float64 {
	out := make([]float64, len(xs))
	ZScoresInto(out, xs)
	return out
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

// Normalize scales the observed entries of xs to unit Euclidean norm in
// place and returns the original norm. A zero or all-missing vector is left
// unchanged and 0 is returned.
func Normalize(xs []float64) float64 {
	ss := 0.0
	for _, v := range xs {
		if !math.IsNaN(v) {
			ss += v * v
		}
	}
	norm := math.Sqrt(ss)
	if norm == 0 {
		return 0
	}
	for i, v := range xs {
		if !math.IsNaN(v) {
			xs[i] = v / norm
		}
	}
	return norm
}

// Clamp limits v to the closed interval [lo, hi]. NaN passes through.
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
