//go:build !amd64 || purego

package cluster

// This build has no assembly scan — another architecture, or the purego
// tag: skipBelow is the Go loop.
const vectorScan = false

func skipBelow(row []float64, j int, bd float64) int { return skipGo(row, j, bd) }

func skipAsm(row []float64, j int, bd float64) int {
	panic("cluster: no assembly scan routine in this build")
}
