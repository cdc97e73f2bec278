//go:build !amd64

package spell

// This build has no assembly dot routine: dotTile always runs dotTileGo.
var useAsm = false

func dotTileAsm(out *[blockRows * tileRows]float64, tile, qz []float64, nExp int) {
	panic("spell: no assembly dot routine in this build")
}
