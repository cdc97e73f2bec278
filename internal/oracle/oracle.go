// Package oracle holds the reference definitions the kernels are tested
// against: SPELL's ranking (Search), GOLEM's enrichment (Terms.Enrich) and
// the tile pyramid's levels (PyramidLevel). Each one restates its analysis
// the obvious way, one serial loop over explicit inputs, so that its value
// is being plainly equivalent to the definition; none of them is fast, and
// none may be made fast.
//
// No binary links this package. It imports neither spell, golem, core,
// cluster, shard nor server, so their in-package tests can import it, and
// it returns plain types of its own.
package oracle

import "math"

// PyramidLevel computes level k of a pane's tile pyramid by direct
// NaN-aware mean over its rows in display order: row i of level k is the
// mean, column by column, of rows [i·2^k, (i+1)·2^k) that measure it, and
// NaN where none does.
func PyramidLevel(rows [][]float64, nCols, k int) [][]float64 {
	n := len(rows)
	block := 1 << uint(k)
	out := make([][]float64, (n+block-1)/block)
	for i := range out {
		row := make([]float64, nCols)
		for c := range row {
			sum, cnt := 0.0, 0
			for j := i * block; j < (i+1)*block && j < n; j++ {
				if src := rows[j]; c < len(src) && !math.IsNaN(src[c]) {
					sum += src[c]
					cnt++
				}
			}
			if cnt > 0 {
				row[c] = sum / float64(cnt)
			} else {
				row[c] = math.NaN()
			}
		}
		out[i] = row
	}
	return out
}
