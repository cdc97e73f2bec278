package cluster

import (
	"testing"
	_ "unsafe" // for go:linkname
)

// useAsm is the correlation kernel's start-up choice of dot routine
// (tilecorr's unexported useAsm), reached by linkname so that the distance
// build's oracles hold under both routines in one process. Nothing outside
// _test files can flip it: the kernel exports no switch.
//
//go:linkname useAsm forestview/internal/tilecorr.useAsm
var useAsm bool

// underEachDot runs f as the subtests "go" and "avx2-fma": under the Go dot
// loop, and under the assembly routine where start-up selected it.
func underEachDot(t *testing.T, f func(t *testing.T)) {
	asm := useAsm
	defer func() { useAsm = asm }()
	t.Run("go", func(t *testing.T) {
		useAsm = false
		f(t)
	})
	t.Run("avx2-fma", func(t *testing.T) {
		if !asm {
			t.Skip("no AVX2+FMA dot routine in this build or on this CPU")
		}
		useAsm = true
		f(t)
	})
}
