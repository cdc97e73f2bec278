//go:build !amd64 || purego

package tilecorr

// This build has no assembly dot routine — another architecture, or the
// purego tag, which is how a host that would choose the assembly runs every
// package's tests on the Go loop: Dot always runs dotGo.
var useAsm = false

func dotAsm(out *[BlockRows * TileRows]float64, tile, qz []float64, nExp int) {
	panic("tilecorr: no assembly dot routine in this build")
}
