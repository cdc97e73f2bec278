//go:build !purego

package tilecorr

// kernel is the routine set this process runs: decided once, from what the
// CPU reports. Only this package's own tests change it, to hold one process
// to every routine; every other package meets the Go code in a `-tags
// purego` build (DESIGN.md §3a).
var kernel = cpuKernel()

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

// scoreAsm is scoreGo in AVX2 + FMA: one tile of ScoreRange, the dot of
// dotAsm and the finish of finishAsm per block, and the sums of the defined
// correlations, all without returning to Go. It reads every block of buf
// that rows fill and trusts every column it is handed to lie inside the
// tile, so it is called through ScoreRange only.
//
//go:noescape
func scoreAsm(sum, cnt *[TileRows]float64, tile []float64, t1, t2 *[TileRows]float64, cells []int32, buf []float64, rows []Row, unit *[TileRows][TileRows]float64, lim float64, lanes uint64) (flagged uint64)

// scoreRange512 is ScoreRange in AVX-512F: two tiles a pass, each lane's
// dot, finish and sums the AVX2 routines' operations in their order, one
// 512-bit register a tile line, and the grid adds of AddMeans — a vector
// add for a tile whose eight rows are consecutive genes, one add a row
// otherwise. It returns the first flagged tile and the tile to go on from
// (past the pass's second tile when that one was clean and added), -1 when
// the range is done, and -2 when a gene index lies outside the grid. It
// trusts ScoreRange's checks, so it is called through ScoreRange only.
//
//go:noescape
func scoreRange512(a *rangeArgs) (flagged, next int)

// distRange512 is DistanceRange in AVX-512F: two tiles a pass, each lane's
// dot and finish scoreRange512's, and 1 − r stored under a mask of the
// lanes below each row. It trusts DistanceRange's checks, so it is called
// through DistanceRange only.
//
//go:noescape
func distRange512(a *distArgs) (stop, next int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuKernel picks the routines the CPU can run: AVX2 and FMA with the YMM
// registers saved across context switches by the operating system, and on
// top of that AVX-512F with the opmask and all 32 ZMM registers saved.
func cpuKernel() int {
	const (
		fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28 // CPUID.1:ECX
		avx2, avx512f     = 1 << 5, 1 << 16           // CPUID.7.0:EBX
		xmmYMM            = 1<<1 | 1<<2               // XCR0: SSE and AVX state enabled
		zmm               = xmmYMM | 0xe0             // and opmask, ZMM_Hi256, Hi16_ZMM
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return goKernel
	}
	if _, _, c, _ := cpuid(1, 0); c&(fma|osxsave|avx) != fma|osxsave|avx {
		return goKernel
	}
	xcr0, _ := xgetbv()
	_, b, _, _ := cpuid(7, 0)
	switch {
	case xcr0&xmmYMM != xmmYMM || b&avx2 == 0:
		return goKernel
	case xcr0&zmm != zmm || b&avx512f == 0:
		return avx2Kernel
	}
	return avx512Kernel
}
