// Package dsp implements the signal-processing primitives needed by the
// lithography simulator: an in-place radix-2 2-D complex FFT with cached
// twiddle-factor and bit-reversal tables over FGrid, the structure-of-arrays
// complex grid the vek kernels work on, the band-pruned transforms of the
// Abbe imaging path, and pooled FGrid scratch for the imaging hot path.
// Everything is stdlib-only.
//
// The band-limited inverse (FGrid.IFFT2DBandLimited) computes only the
// pixels its caller keeps: the row pass on the spectrum's support rows, the
// column pass on the kept columns, without the bit-reversal swaps and
// butterfly groups that would only move or combine +0 values, and the 1/N
// scale on the kept region. The kept region is bit-identical to the full
// inverse, provided every row outside the support holds +0 there.
package dsp

import "math/bits"

// NextPow2 returns the smallest power of two >= n (and >= 1).
//
//postopc:allocfree
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
//
//postopc:allocfree
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// FreqIndex maps grid index i (0..n-1) to the signed frequency bin
// (-n/2 .. n/2-1) using standard FFT ordering.
//
//postopc:allocfree
func FreqIndex(i, n int) int {
	if i <= n/2-1 {
		return i
	}
	return i - n
}
