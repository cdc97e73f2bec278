//go:build !purego

package tilecorr

// useAsm says whether Dot runs dotAsm, FinishBlock finishAsm and ScoreTile
// scoreAsm: decided once, from what the CPU reports. Only this package's own
// tests clear it, to hold one process to both routines; every other package
// meets the Go code in a `-tags purego` build (DESIGN.md §3a).
var useAsm = cpuHasAVX2FMA()

// dotAsm is Dot's contract in AVX2 + FMA: the tile line in two 256-bit
// registers, one broadcast per query row, eight accumulators. It reads
// TileRows·nExp cells of tile and BlockRows·nExp of qz whatever their
// lengths, so it is called through Dot only.
//
//go:noescape
func dotAsm(out *[BlockRows * TileRows]float64, tile, qz []float64, nExp int)

// finishAsm is finishGo in AVX2 + FMA, one query row at a time with all of
// its sums in registers, eight lanes per pair of vectors. It trusts every
// column it is handed to lie inside the tile, so it is called through
// FinishBlock only.
//
//go:noescape
func finishAsm(out, dots *[BlockRows * TileRows]float64, tile []float64, t1, t2 *[TileRows]float64, cells []int32, z, present []float64, rows []Row, unit *[TileRows][TileRows]float64, lim float64) (flagged uint32)

// scoreAsm is scoreGo in AVX2 + FMA: ScoreTile's one call a tile, the dot
// of dotAsm and the finish of finishAsm per block, and the sums of the
// defined correlations, all without returning to Go. It reads every block
// of buf that rows fill and trusts every column it is handed to lie inside
// the tile, so it is called through ScoreTile only.
//
//go:noescape
func scoreAsm(sum, cnt *[TileRows]float64, tile []float64, t1, t2 *[TileRows]float64, cells []int32, buf []float64, rows []Row, unit *[TileRows][TileRows]float64, lim float64, lanes uint64) (flagged uint64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuHasAVX2FMA reports whether the CPU implements AVX2 and FMA and the
// operating system saves the YMM registers across context switches.
func cpuHasAVX2FMA() bool {
	const (
		fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28 // CPUID.1:ECX
		avx2              = 1 << 5                    // CPUID.7.0:EBX
		xmmYMM            = 1<<1 | 1<<2               // XCR0: SSE and AVX state enabled
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xmmYMM != xmmYMM {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}
