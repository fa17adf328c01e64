// Package vek implements the vector kernels of the imaging hot path: the
// Abbe model's FFT butterflies, pointwise pupil-filter apply and scaled
// intensity accumulate over structure-of-arrays (SoA) float64 planes —
// separate real/imag planes instead of interleaved []complex128 — and the
// row and column tap sums of the fast model's separable Gaussian blur
// (ConvRow, ConvCol).
//
// # Why SoA
//
// The complex128 inner loops compile to scalar SSE: each element is a
// 16-byte (re, im) pair and every operation decomposes into dependent
// scalar float ops. Deinterleaved planes make each lane an independent
// 8-byte float stream, so the kernels can execute with 4-lane AVX2 vector
// instructions (VMULPD/VADDPD/VSUBPD) that perform the identical per-lane
// IEEE-754 operation.
//
// # Kernel selection
//
// The AVX2 assembly is built into every amd64 binary and chosen once at
// start-up from CPUID (SIMDEnabled), whatever GOAMD64 level the binary was
// built for. Without AVX2 — another architecture, an amd64 host that lacks
// it, or a build with the purego tag, which forces it off — the kernels
// run their Go reference loops. Measurement rejected manual 4-wide
// unrolling of the Go loops (six live slice streams spill; the
// out-of-order core extracts the ILP from the simple loop on its own), so
// they stay 1-wide and bounds-check-free via reslicing.
//
// # Bit-identity contract
//
// Every kernel performs the exact floating-point operation sequence of the
// complex128 loop it replaces:
//
//   - complex multiply is the naive expansion the Go compiler open-codes,
//     in its operand order: re = a.re*b.re - a.im*b.im,
//     im = a.re*b.im + a.im*b.re;
//   - no fused multiply-add, anywhere: the generic path relies on the gc
//     compiler never contracting a*b+c on amd64 (asserted by the golden-SHA
//     regression tests at every GOAMD64 level and under purego), and the
//     assembly emits only MULSD/ADDSD and VMULPD/VADDPD/VSUBPD, never
//     VFMADD;
//   - no reassociation: sums are accumulated in the order of the original
//     loops;
//   - the inverse-FFT 1/N scaling mirrors runtime.complex128div for a
//     positive real divisor (see ScaleInv), including its NaN fixup, and
//     substitutes the division by a multiplication only when the divisor is
//     a power of two — an exact, bit-preserving rewrite.
//
// Lane independence makes vectorization order-preserving: a 4-lane VADDPD
// is four one-lane additions with no cross-lane arithmetic, so the SIMD
// and generic paths produce bit-identical planes (property-tested in this
// package, pinned end-to-end by the litho golden-SHA tests). The only
// unpinned detail is the payload and sign of a NaN produced when BOTH
// operands of one commutative operation (+, *) are NaNs with different
// payloads: SSE/AVX propagate the first operand's payload, and the gc SSA
// backend commutes Add64F/Mul64F operands freely, so the complex128 code
// itself does not pin that bit pattern between compilations. Which
// elements come out NaN, and every non-NaN bit, is exact; the property
// tests therefore compare NaNs payload-insensitively and everything else
// bit-for-bit.
package vek

// Split deinterleaves src into separate real and imaginary planes.
// re and im must each hold at least len(src) elements.
//
//postopc:allocfree
func Split(re, im []float64, src []complex128) {
	n := len(src)
	re = re[:n]
	im = im[:n]
	for i, v := range src {
		re[i] = real(v)
		im[i] = imag(v)
	}
}

// Join interleaves the real and imaginary planes into dst.
// dst must hold at least len(re) elements; len(im) must match len(re).
//
//postopc:allocfree
func Join(dst []complex128, re, im []float64) {
	n := len(re)
	im = im[:n]
	dst = dst[:n]
	for i := range dst {
		dst[i] = complex(re[i], im[i])
	}
}

// Zero clears the plane.
//
//postopc:allocfree
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// ButterflyCol executes one radix-2 butterfly with a single twiddle across
// a span of independent columns — the inner loop of the blocked column
// transform. For every lane i it performs exactly
//
//	a := lo[i]; b := hi[i] * w
//	lo[i] = a + b; hi[i] = a - b
//
// in the complex128 operation order: br = hr*wr - hi*wi, bi = hr*wi + hi*wr.
// All four planes must have len(loRe) elements.
//
//postopc:allocfree
func ButterflyCol(loRe, loIm, hiRe, hiIm []float64, wr, wi float64) {
	n := len(loRe)
	loIm = loIm[:n]
	hiRe = hiRe[:n]
	hiIm = hiIm[:n]
	if simdOn && n >= 4 {
		m := n &^ 3
		butterflyColSIMD(&loRe[0], &loIm[0], &hiRe[0], &hiIm[0], wr, wi, m)
		loRe, loIm = loRe[m:], loIm[m:]
		hiRe, hiIm = hiRe[m:], hiIm[m:]
	}
	butterflyColGeneric(loRe, loIm, hiRe, hiIm, wr, wi)
}

//postopc:allocfree
func butterflyColGeneric(loRe, loIm, hiRe, hiIm []float64, wr, wi float64) {
	n := len(loRe)
	loIm = loIm[:n]
	hiRe = hiRe[:n]
	hiIm = hiIm[:n]
	for i := range loRe {
		hr, him := hiRe[i], hiIm[i]
		br := hr*wr - him*wi
		bi := hr*wi + him*wr
		ar, ai := loRe[i], loIm[i]
		loRe[i], loIm[i] = ar+br, ai+bi
		hiRe[i], hiIm[i] = ar-br, ai-bi
	}
}

// ButterflyRow executes one radix-2 butterfly span with per-element
// twiddles — the inner loop of a 1-D line transform, where for one stage
// block the lo/hi halves are contiguous and the twiddle varies along the
// span. Per element: br = hr*twRe - hi*twIm, bi = hr*twIm + hi*twRe, then
// lo' = a+b, hi' = a-b. All six planes must have len(loRe) elements.
//
//postopc:allocfree
func ButterflyRow(loRe, loIm, hiRe, hiIm, twRe, twIm []float64) {
	n := len(loRe)
	loIm = loIm[:n]
	hiRe = hiRe[:n]
	hiIm = hiIm[:n]
	twRe = twRe[:n]
	twIm = twIm[:n]
	if simdOn && n >= 4 {
		m := n &^ 3
		butterflyRowSIMD(&loRe[0], &loIm[0], &hiRe[0], &hiIm[0], &twRe[0], &twIm[0], m)
		loRe, loIm = loRe[m:], loIm[m:]
		hiRe, hiIm = hiRe[m:], hiIm[m:]
		twRe, twIm = twRe[m:], twIm[m:]
	}
	butterflyRowGeneric(loRe, loIm, hiRe, hiIm, twRe, twIm)
}

//postopc:allocfree
func butterflyRowGeneric(loRe, loIm, hiRe, hiIm, twRe, twIm []float64) {
	n := len(loRe)
	loIm = loIm[:n]
	hiRe = hiRe[:n]
	hiIm = hiIm[:n]
	twRe = twRe[:n]
	twIm = twIm[:n]
	for i := range loRe {
		hr, him := hiRe[i], hiIm[i]
		wr, wi := twRe[i], twIm[i]
		br := hr*wr - him*wi
		bi := hr*wi + him*wr
		ar, ai := loRe[i], loIm[i]
		loRe[i], loIm[i] = ar+br, ai+bi
		hiRe[i], hiIm[i] = ar-br, ai-bi
	}
}

// CMul computes the elementwise complex product dst = a × b over SoA
// planes — the pupil-filter apply (spectrum row × filter row). The operand
// order matches the complex128 expression s*v with a as the left operand:
// dr = ar*br - ai*bi, di = ar*bi + ai*br. dst may alias a or b. All planes
// must have len(dstRe) elements.
//
//postopc:allocfree
func CMul(dstRe, dstIm, aRe, aIm, bRe, bIm []float64) {
	n := len(dstRe)
	dstIm = dstIm[:n]
	aRe = aRe[:n]
	aIm = aIm[:n]
	bRe = bRe[:n]
	bIm = bIm[:n]
	if simdOn && n >= 4 {
		m := n &^ 3
		cmulSIMD(&dstRe[0], &dstIm[0], &aRe[0], &aIm[0], &bRe[0], &bIm[0], m)
		dstRe, dstIm = dstRe[m:], dstIm[m:]
		aRe, aIm = aRe[m:], aIm[m:]
		bRe, bIm = bRe[m:], bIm[m:]
	}
	cmulGeneric(dstRe, dstIm, aRe, aIm, bRe, bIm)
}

//postopc:allocfree
func cmulGeneric(dstRe, dstIm, aRe, aIm, bRe, bIm []float64) {
	n := len(dstRe)
	dstIm = dstIm[:n]
	aRe = aRe[:n]
	aIm = aIm[:n]
	bRe = bRe[:n]
	bIm = bIm[:n]
	for i := range dstRe {
		ar, ai := aRe[i], aIm[i]
		br, bi := bRe[i], bIm[i]
		dstRe[i] = ar*br - ai*bi
		dstIm[i] = ar*bi + ai*br
	}
}

// AccIntensity accumulates the weighted intensity of a complex field over
// SoA planes: acc[i] += w * (re[i]*re[i] + im[i]*im[i]) — the source-point
// intensity sum of the Abbe kernel, in its exact operation order. re and im
// must have len(acc) elements.
//
//postopc:allocfree
func AccIntensity(acc, re, im []float64, w float64) {
	n := len(acc)
	re = re[:n]
	im = im[:n]
	if simdOn && n >= 4 {
		m := n &^ 3
		accIntensitySIMD(&acc[0], &re[0], &im[0], w, m)
		acc, re, im = acc[m:], re[m:], im[m:]
	}
	accIntensityGeneric(acc, re, im, w)
}

//postopc:allocfree
func accIntensityGeneric(acc, re, im []float64, w float64) {
	n := len(acc)
	re = re[:n]
	im = im[:n]
	for i := range acc {
		r, q := re[i], im[i]
		acc[i] = acc[i] + w*(r*r+q*q)
	}
}

// ScaleInv applies the inverse-FFT 1/N scaling to a plane pair, performing
// per element exactly what x /= complex(n, 0) performs through
// runtime.complex128div (Smith's algorithm, |real| >= |imag| branch, with
// the C99 Annex G fixup on the both-NaN path):
//
//	ratio = 0/n          (+0 for the positive divisors the FFT uses)
//	e = (re + im*ratio) / n
//	f = (im - re*ratio) / n
//
// When n is a power of two — every FFT length — the two divisions are
// replaced by multiplication with the exactly representable 1/n, which is
// bit-identical for every input including denormals, infinities and NaNs
// (scaling by an exact power of two rounds the same true value either
// way). If e and f both come out NaN the element is recomputed through
// real complex128 division, reproducing the runtime's fixup exactly.
// im must have len(re) elements; n must be positive and finite.
//
//postopc:allocfree
func ScaleInv(re, im []float64, n float64) {
	im = im[:len(re)]
	ratio := 0 / n
	if isPow2Float(n) {
		invN := 1 / n
		for i := range re {
			r, q := re[i], im[i]
			e, f := (r+q*ratio)*invN, (q-r*ratio)*invN
			if e != e && f != f {
				e, f = divFixup(r, q, n)
			}
			re[i], im[i] = e, f
		}
		return
	}
	// General real divisor: the literal two-division mirror.
	denom := n + ratio*0
	for i := range re {
		r, q := re[i], im[i]
		e, f := (r+q*ratio)/denom, (q-r*ratio)/denom
		if e != e && f != f {
			e, f = divFixup(r, q, n)
		}
		re[i], im[i] = e, f
	}
}

// divFixup delegates one element to real complex128 division — the
// runtime's own code path, so the rare both-NaN fixup (Inf inputs, NaN
// divisors) matches runtime.complex128div bit for bit.
//
//postopc:allocfree
func divFixup(re, im, n float64) (float64, float64) {
	q := complex(re, im) / complex(n, 0)
	return real(q), imag(q)
}

// isPow2Float reports whether n is a positive power of two whose exact
// reciprocal is a normal float64 — the precondition for the
// multiply-by-reciprocal rewrite in ScaleInv.
//
//postopc:allocfree
func isPow2Float(n float64) bool {
	i := int64(n)
	return n >= 1 && float64(i) == n && i&(i-1) == 0
}
