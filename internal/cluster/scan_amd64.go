//go:build !purego

package cluster

import "forestview/internal/tilecorr"

// vectorScan is whether skipBelow runs the AVX2 routine: where tilecorr's
// start-up chose its assembly, which needs the same CPU features.
var vectorScan = tilecorr.KernelName() != "go"

// skipBelow returns a j' ≥ j such that no cell of row[j:j'] is below bd:
// j' = len(row), or a block of scanBlock cells from j' (cut at the end)
// that may hold one. NaN cells are never below bd, and nothing is below a
// NaN bd.
func skipBelow(row []float64, j int, bd float64) int {
	if vectorScan {
		return skipAsm(row, j, bd)
	}
	return skipGo(row, j, bd)
}

// skipAsm is skipBelow in AVX2, scanBlock cells a test in four vector
// compares: it returns the start of the first whole block from j holding a
// cell below bd, or where fewer than scanBlock cells are left.
//
//go:noescape
func skipAsm(row []float64, j int, bd float64) int
