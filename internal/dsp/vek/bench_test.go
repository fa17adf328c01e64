package vek_test

import (
	"testing"

	"postopc/internal/dsp/vek"
)

// BenchmarkKernelInnerLoops is the micro-series behind BENCH_kernel.json's
// kernel_micro block: each of the three dominant inner loops — butterfly,
// pointwise filter apply, scaled intensity accumulate — timed as the
// complex128 reference loop and as the SoA plane kernel, at the span
// length the real pipeline uses (a 256-wide row/column block), one
// butterfly group of a 16-column block as the column pass runs it, plus the
// fast model's blur tap sums (256 outputs, the 121 taps of the broad
// kernel at nominal focus) against their Go loops. Run on the default
// build and again on the Go reference loops:
//
//	go test ./internal/dsp/vek/ -run - -bench KernelInnerLoops
//	go test -tags purego ./internal/dsp/vek/ -run - -bench KernelInnerLoops
//
// On an AVX2 host the first run measures the AVX2 path, the second the
// generic path.
const benchN = 256

func benchComplexLine(seed float64) []complex128 {
	xs := make([]complex128, benchN)
	for i := range xs {
		xs[i] = complex(seed+float64(i)*0.25, seed-float64(i)*0.125)
	}
	return xs
}

func benchPlanes(seed float64) (re, im []float64) {
	re = make([]float64, benchN)
	im = make([]float64, benchN)
	vek.Split(re, im, benchComplexLine(seed))
	return re, im
}

func BenchmarkKernelInnerLoops(b *testing.B) {
	b.Logf("goamd64=%q simd=%v", vek.BuildLevel(), vek.SIMDEnabled())

	b.Run("butterfly/complex128", func(b *testing.B) {
		lo := benchComplexLine(1.5)
		hi := benchComplexLine(-0.75)
		w := complex(0.6, -0.8)
		b.SetBytes(benchN * 16 * 2)
		for i := 0; i < b.N; i++ {
			for c := range lo {
				a := lo[c]
				bb := hi[c] * w
				lo[c] = a + bb
				hi[c] = a - bb
			}
		}
	})
	b.Run("butterfly/soa", func(b *testing.B) {
		loRe, loIm := benchPlanes(1.5)
		hiRe, hiIm := benchPlanes(-0.75)
		re, im := append(loRe, hiRe...), append(loIm, hiIm...)
		twRe, twIm := []float64{0.6}, []float64{-0.8}
		b.SetBytes(benchN * 16 * 2)
		for i := 0; i < b.N; i++ {
			vek.ButterflyGroup(re, im, benchN, benchN, twRe, twIm)
		}
	})

	// One butterfly group of the column pass as the blocked transform runs
	// it: a 16-column block of a 256-wide plane, 16 butterflies (stage 4),
	// each with its own twiddle.
	const groupCW, groupHalf = 16, 16
	b.Run("butterfly-group/complex128", func(b *testing.B) {
		rows := make([][]complex128, 2*groupHalf)
		for r := range rows {
			rows[r] = benchComplexLine(float64(r))[:groupCW]
		}
		tw := benchComplexLine(0.5)[:groupHalf]
		b.SetBytes(groupHalf * groupCW * 16 * 2)
		for i := 0; i < b.N; i++ {
			for k, w := range tw {
				lo, hi := rows[k], rows[k+groupHalf]
				for c := range lo {
					a := lo[c]
					bb := hi[c] * w
					lo[c] = a + bb
					hi[c] = a - bb
				}
			}
		}
	})
	b.Run("butterfly-group/soa", func(b *testing.B) {
		var re, im []float64
		for r := 0; r < 2*groupHalf; r++ {
			rowRe, rowIm := benchPlanes(float64(r))
			re, im = append(re, rowRe...), append(im, rowIm...)
		}
		twRe, twIm := benchPlanes(0.5)
		twRe, twIm = twRe[:groupHalf], twIm[:groupHalf]
		b.SetBytes(groupHalf * groupCW * 16 * 2)
		for i := 0; i < b.N; i++ {
			vek.ButterflyGroup(re, im, benchN, groupCW, twRe, twIm)
		}
	})

	b.Run("filter-apply/complex128", func(b *testing.B) {
		s := benchComplexLine(0.5)
		v := benchComplexLine(2.0)
		dst := make([]complex128, benchN)
		b.SetBytes(benchN * 16 * 2)
		for i := 0; i < b.N; i++ {
			for c := range dst {
				dst[c] = s[c] * v[c]
			}
		}
	})
	b.Run("filter-apply/soa", func(b *testing.B) {
		sRe, sIm := benchPlanes(0.5)
		vRe, vIm := benchPlanes(2.0)
		dRe := make([]float64, benchN)
		dIm := make([]float64, benchN)
		b.SetBytes(benchN * 16 * 2)
		for i := 0; i < b.N; i++ {
			vek.CMul(dRe, dIm, sRe, sIm, vRe, vIm)
		}
	})

	b.Run("accumulate/complex128", func(b *testing.B) {
		field := benchComplexLine(0.25)
		acc := make([]float64, benchN)
		b.SetBytes(benchN * (16 + 8))
		for i := 0; i < b.N; i++ {
			for c, e := range field {
				re, im := real(e), imag(e)
				acc[c] += 0.125 * (re*re + im*im)
			}
		}
	})
	b.Run("accumulate/soa", func(b *testing.B) {
		fRe, fIm := benchPlanes(0.25)
		acc := make([]float64, benchN)
		b.SetBytes(benchN * (16 + 8))
		for i := 0; i < b.N; i++ {
			vek.AccIntensity(acc, fRe, fIm, 0.125)
		}
	})

	b.Run("scale-inv/complex128", func(b *testing.B) {
		xs := benchComplexLine(3.0)
		nC := complex(float64(benchN), 0)
		b.SetBytes(benchN * 16)
		for i := 0; i < b.N; i++ {
			for c := range xs {
				xs[c] /= nC
			}
		}
	})
	b.Run("scale-inv/soa", func(b *testing.B) {
		re, im := benchPlanes(3.0)
		b.SetBytes(benchN * 16)
		for i := 0; i < b.N; i++ {
			vek.ScaleInv(re, im, benchN)
		}
	})

	const taps = 121
	kern := make([]float64, taps)
	for j := range kern {
		kern[j] = 1 / float64(taps)
	}
	plane, _ := benchPlanes(0.75)
	for len(plane) < taps*benchN {
		plane = append(plane, plane[:benchN]...)
	}
	dst := make([]float64, benchN)
	b.Run("conv-row/generic", func(b *testing.B) {
		b.SetBytes(benchN * 8 * taps)
		for i := 0; i < b.N; i++ {
			vek.ConvRowGeneric(dst, plane, kern)
		}
	})
	b.Run("conv-row/vek", func(b *testing.B) {
		b.SetBytes(benchN * 8 * taps)
		for i := 0; i < b.N; i++ {
			vek.ConvRow(dst, plane, kern)
		}
	})
	b.Run("conv-col/generic", func(b *testing.B) {
		b.SetBytes(benchN * 8 * taps)
		for i := 0; i < b.N; i++ {
			vek.ConvColGeneric(dst, plane, benchN, kern)
		}
	})
	b.Run("conv-col/vek", func(b *testing.B) {
		b.SetBytes(benchN * 8 * taps)
		for i := 0; i < b.N; i++ {
			vek.ConvCol(dst, plane, benchN, kern)
		}
	})
}
