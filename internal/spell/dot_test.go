package spell

import _ "unsafe" // for go:linkname

// useAsm is the kernel's start-up choice of dot routine (tilecorr's
// unexported useAsm, dot_amd64.go), reached from this package's tests by
// linkname so that they can hold one process to both routines — clearing it
// sends every tilecorr.Dot to the Go loop. Nothing outside _test files can
// flip it: the kernel exports no switch.
//
//go:linkname useAsm forestview/internal/tilecorr.useAsm
var useAsm bool
