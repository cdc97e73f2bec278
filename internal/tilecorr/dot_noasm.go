//go:build !amd64 || purego

package tilecorr

// This build has no assembly routines — another architecture, or the
// purego tag, which is how a host that would choose the assembly runs every
// package's tests on the Go code: Dot always runs dotGo, FinishBlock
// finishGo and ScoreRange scoreGo.
var kernel = goKernel

func dotAsm(out *[BlockRows * TileRows]float64, tile, qz []float64, nExp int) {
	panic("tilecorr: no assembly dot routine in this build")
}

func finishAsm(out, dots *[BlockRows * TileRows]float64, tile []float64, t1, t2 *[TileRows]float64, cells []int32, z, present []float64, rows []Row, unit *[TileRows][TileRows]float64, lim float64) uint32 {
	panic("tilecorr: no assembly finish routine in this build")
}

func scoreAsm(sum, cnt *[TileRows]float64, tile []float64, t1, t2 *[TileRows]float64, cells []int32, buf []float64, rows []Row, unit *[TileRows][TileRows]float64, lim float64, lanes uint64) uint64 {
	panic("tilecorr: no assembly score routine in this build")
}

func scoreRange512(a *rangeArgs) int {
	panic("tilecorr: no assembly range routine in this build")
}
