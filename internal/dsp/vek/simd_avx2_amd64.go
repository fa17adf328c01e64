//go:build amd64 && !purego

package vek

// The AVX2 kernels are assembled into every amd64 build and chosen once at
// start-up: simdOn is set from CPUID, so a binary built at the default
// GOAMD64=v1 runs them on any host that has AVX2 and the generic path
// elsewhere. The assembly performs the identical per-lane IEEE-754
// operation sequence as the generic path: VMULPD/VADDPD/VSUBPD only, no
// VFMADD (the no-FMA contract), no cross-lane arithmetic. The lane count
// (n, or cw for the butterfly group) must be a multiple of 4; the Go
// wrappers run the remainder through the generic
// loop, or, for the convolutions, one overlapping 4-wide block.
var simdOn = CPU().AVX2

//postopc:allocfree
//go:noescape
func butterflyGroupSIMD(re, im, twRe, twIm *float64, stride, cw, half int)

//postopc:allocfree
//go:noescape
func butterflyRowSIMD(loRe, loIm, hiRe, hiIm, twRe, twIm *float64, n int)

//postopc:allocfree
//go:noescape
func cmulSIMD(dstRe, dstIm, aRe, aIm, bRe, bIm *float64, n int)

//postopc:allocfree
//go:noescape
func accIntensitySIMD(acc, re, im *float64, w float64, n int)

//postopc:allocfree
//go:noescape
func convRowSIMD(dst, src, kern *float64, n, taps int)

//postopc:allocfree
//go:noescape
func convColSIMD(dst, src, kern *float64, n, stride, taps int)
