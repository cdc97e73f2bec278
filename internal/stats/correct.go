package stats

import (
	"math"
	"sort"
)

// Multiple-hypothesis corrections used by GOLEM when testing a gene list
// against every GO term simultaneously.

// Bonferroni returns p-values multiplied by the number of tests and clamped
// to 1. NaN inputs stay NaN. The slice order is preserved.
func Bonferroni(ps []float64) []float64 {
	out := make([]float64, len(ps))
	m := float64(len(ps))
	for i, p := range ps {
		if math.IsNaN(p) {
			out[i] = math.NaN()
			continue
		}
		out[i] = Clamp(p*m, 0, 1)
	}
	return out
}

// BenjaminiHochberg returns Benjamini-Hochberg adjusted q-values controlling
// the false-discovery rate. NaN p-values are excluded from the ranking and
// remain NaN in the output. The slice order is preserved.
func BenjaminiHochberg(ps []float64) []float64 {
	type ip struct {
		idx int
		p   float64
	}
	obs := make([]ip, 0, len(ps))
	for i, p := range ps {
		if !math.IsNaN(p) {
			obs = append(obs, ip{i, p})
		}
	}
	out := make([]float64, len(ps))
	for i := range out {
		out[i] = math.NaN()
	}
	if len(obs) == 0 {
		return out
	}
	sort.Slice(obs, func(a, b int) bool { return obs[a].p < obs[b].p })
	m := float64(len(obs))
	// Walk from the largest p-value down, enforcing monotonicity of the
	// adjusted values.
	running := 1.0
	for r := len(obs) - 1; r >= 0; r-- {
		q := obs[r].p * m / float64(r+1)
		if q < running {
			running = q
		}
		out[obs[r].idx] = Clamp(running, 0, 1)
	}
	return out
}
