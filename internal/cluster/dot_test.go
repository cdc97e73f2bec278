package cluster

import (
	"testing"

	"forestview/internal/tilecorr"
)

// underEachDot runs f as the subtest named for the kernel routines this
// build runs ("go" or "avx2-fma", tilecorr.KernelName()); the other name says so
// and passes. A test binary has one routine — the kernel exports no switch,
// and only tilecorr's own tests flip its unexported one — so the distance
// build's oracles meet the Go loop in CI's `-tags purego` leg and the
// assembly in the default one.
func underEachDot(t *testing.T, f func(t *testing.T)) {
	for _, routine := range []string{"go", "avx2-fma"} {
		t.Run(routine, func(t *testing.T) {
			if k := tilecorr.KernelName(); k != routine {
				t.Logf("not run: this build's dot routine is %s", k)
				return
			}
			f(t)
		})
	}
}
