//go:build !amd64 || purego

package vek

// Off amd64, and under the purego build tag, no AVX2 kernel is built and
// every kernel runs its Go reference loop. simdOn is a constant here, so
// every `if simdOn` branch is dead-code-eliminated and the stubs below are
// never reached.
const simdOn = false

//postopc:allocfree
func butterflyColSIMD(loRe, loIm, hiRe, hiIm *float64, wr, wi float64, n int) {
	panic("vek: SIMD kernel called without AVX2 kernels")
}

//postopc:allocfree
func butterflyRowSIMD(loRe, loIm, hiRe, hiIm, twRe, twIm *float64, n int) {
	panic("vek: SIMD kernel called without AVX2 kernels")
}

//postopc:allocfree
func cmulSIMD(dstRe, dstIm, aRe, aIm, bRe, bIm *float64, n int) {
	panic("vek: SIMD kernel called without AVX2 kernels")
}

//postopc:allocfree
func accIntensitySIMD(acc, re, im *float64, w float64, n int) {
	panic("vek: SIMD kernel called without AVX2 kernels")
}

//postopc:allocfree
func convRowSIMD(dst, src, kern *float64, n, taps int) {
	panic("vek: SIMD kernel called without AVX2 kernels")
}

//postopc:allocfree
func convColSIMD(dst, src, kern *float64, n, stride, taps int) {
	panic("vek: SIMD kernel called without AVX2 kernels")
}
