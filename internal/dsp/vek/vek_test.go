package vek_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"postopc/internal/dsp/vek"
)

// Property tests pinning the package contract: every kernel is bit-identical
// to the complex128 reference loop it replaces — on non-power-aligned
// lengths, NaN/Inf/denormal inputs, signed zeros and empty slices. The
// references below are verbatim copies of the pre-vek inner loops.
//
// Bit-identical carries one caveat (see the package doc): when BOTH
// operands of a commutative op are NaNs with different payloads, the
// surviving payload depends on SSA operand order, which the complex128
// reference itself does not pin between compilations. Comparisons below are
// therefore payload-insensitive for NaN results (NaN == NaN) and exact to
// the bit for everything else — including which elements are NaN.

// genValue draws one float64 biased heavily toward IEEE-754 edge cases.
func genValue(r *rand.Rand) float64 {
	switch r.Intn(12) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return math.Copysign(0, -1)
	case 5:
		// Denormals: the 1/N-scaling exactness proof must hold below the
		// normal range too.
		return math.Float64frombits(uint64(r.Intn(1<<20)) + 1)
	case 6:
		return -math.Float64frombits(uint64(r.Intn(1<<20)) + 1)
	default:
		return (r.Float64()*2 - 1) * math.Ldexp(1, r.Intn(80)-40)
	}
}

// cline is a complex line whose quick.Generator produces awkward lengths
// (including 0) and edge-case values.
type cline []complex128

func (cline) Generate(r *rand.Rand, _ int) reflect.Value {
	n := r.Intn(67)
	xs := make(cline, n)
	for i := range xs {
		xs[i] = complex(genValue(r), genValue(r))
	}
	return reflect.ValueOf(xs)
}

// split returns freshly allocated SoA planes of xs.
func split(xs []complex128) (re, im []float64) {
	re = make([]float64, len(xs))
	im = make([]float64, len(xs))
	vek.Split(re, im, xs)
	return re, im
}

// bitsEqual compares two floats bit-for-bit, except that any NaN matches
// any NaN (payloads are the one compiler-unpinned detail).
func bitsEqual(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// planesEqual compares a plane pair against a complex line bit-for-bit
// (NaN payload-insensitive).
func planesEqual(re, im []float64, want []complex128) bool {
	if len(re) != len(want) || len(im) != len(want) {
		return false
	}
	for i, w := range want {
		if !bitsEqual(re[i], real(w)) || !bitsEqual(im[i], imag(w)) {
			return false
		}
	}
	return true
}

func floatsEqual(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !bitsEqual(got[i], want[i]) {
			return false
		}
	}
	return true
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}
}

// groupShape is a butterfly group of the blocked column transform: half
// butterflies across cw lanes, rows stride floats apart.
type groupShape struct{ half, cw, stride int }

func (groupShape) Generate(r *rand.Rand, _ int) reflect.Value {
	cw := r.Intn(20)
	return reflect.ValueOf(groupShape{half: 1 << r.Intn(5), cw: cw, stride: cw + r.Intn(4)})
}

// groupRows returns 2*half rows of edge-case complex values, the group's
// layout as a complex128 column block would hold it.
func groupRows(r *rand.Rand, g groupShape) [][]complex128 {
	rows := make([][]complex128, 2*g.half)
	for i := range rows {
		rows[i] = make([]complex128, g.cw)
		for c := range rows[i] {
			rows[i][c] = complex(genValue(r), genValue(r))
		}
	}
	return rows
}

// groupPlanes lays rows out as SoA planes, row i at element i*stride, with
// padding lanes that the kernel must leave alone.
func groupPlanes(rows [][]complex128, stride int) (re, im []float64) {
	re = make([]float64, len(rows)*stride)
	im = make([]float64, len(rows)*stride)
	for i := range re {
		re[i], im[i] = -7, 7
	}
	for i, row := range rows {
		vek.Split(re[i*stride:], im[i*stride:], row)
	}
	return re, im
}

func TestButterflyGroupMatchesComplex(t *testing.T) {
	prop := func(g groupShape, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := groupRows(r, g)
		tw := make([]complex128, g.half)
		for k := range tw {
			tw[k] = complex(genValue(r), genValue(r))
		}
		re, im := groupPlanes(rows, g.stride)
		twRe, twIm := split(tw)

		for k, w := range tw { // the fftColumnsBlock (stage, start) loop, verbatim
			lo, hi := rows[k], rows[k+g.half]
			for c := range lo {
				a := lo[c]
				b := hi[c] * w
				lo[c] = a + b
				hi[c] = a - b
			}
		}
		vek.ButterflyGroup(re, im, g.stride, g.cw, twRe, twIm)
		want, wantIm := groupPlanes(rows, g.stride)
		return floatsEqual(re, want) && floatsEqual(im, wantIm)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestButterflyRowMatchesComplex(t *testing.T) {
	prop := func(lo, hi, tw cline) bool {
		n := len(lo)
		if len(hi) < n {
			n = len(hi)
		}
		if len(tw) < n {
			n = len(tw)
		}
		lo, hi, tw = lo[:n], hi[:n], tw[:n]

		refLo := append([]complex128(nil), lo...)
		refHi := append([]complex128(nil), hi...)
		for k, w := range tw { // the fftPlanned stage loop, verbatim
			a := refLo[k]
			b := refHi[k] * w
			refLo[k] = a + b
			refHi[k] = a - b
		}

		loRe, loIm := split(lo)
		hiRe, hiIm := split(hi)
		twRe, twIm := split(tw)
		vek.ButterflyRow(loRe, loIm, hiRe, hiIm, twRe, twIm)
		return planesEqual(loRe, loIm, refLo) && planesEqual(hiRe, hiIm, refHi)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestCMulMatchesComplex(t *testing.T) {
	prop := func(a, b cline) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]

		ref := make([]complex128, n)
		for i := range ref { // the aerialFiltered filter apply, verbatim
			ref[i] = a[i] * b[i]
		}

		aRe, aIm := split(a)
		bRe, bIm := split(b)
		dstRe := make([]float64, n)
		dstIm := make([]float64, n)
		vek.CMul(dstRe, dstIm, aRe, aIm, bRe, bIm)
		if !planesEqual(dstRe, dstIm, ref) {
			return false
		}
		// Aliased destination (dst == a), as the in-place apply uses it.
		vek.CMul(aRe, aIm, aRe, aIm, bRe, bIm)
		return planesEqual(aRe, aIm, ref)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestAccIntensityMatchesComplex(t *testing.T) {
	prop := func(field cline, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := genValue(r)
		acc := make([]float64, len(field))
		for i := range acc {
			acc[i] = genValue(r)
		}

		ref := append([]float64(nil), acc...)
		for i, e := range field { // the Abbe intensity accumulate, verbatim
			re, im := real(e), imag(e)
			ref[i] += w * (re*re + im*im)
		}

		fRe, fIm := split(field)
		vek.AccIntensity(acc, fRe, fIm, w)
		return floatsEqual(acc, ref)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestScaleInvMatchesComplexDiv(t *testing.T) {
	divisors := []float64{1, 2, 4, 64, 256, 1024, 65536, 1 << 30, // pow2 fast path
		3, 6.5, 100, 255} // general mirror path
	prop := func(xs cline, pick uint8) bool {
		n := divisors[int(pick)%len(divisors)]

		ref := append([]complex128(nil), xs...)
		nC := complex(n, 0)
		for i := range ref { // the inverse-FFT scaling loop, verbatim
			ref[i] /= nC
		}

		re, im := split(xs)
		vek.ScaleInv(re, im, n)
		return planesEqual(re, im, ref)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestSIMDMatchesGeneric pins the dispatch equivalence: when CPUID reports
// AVX2 (and the purego tag is off) the public kernels run AVX2 assembly,
// which must agree with the generic Go path bit-for-bit (per-lane IEEE
// operations only). Without AVX2 kernels both sides run the same Go code,
// so the check only has teeth on an AVX2 host; CI runs it on one, and a
// purego lane runs the generic side alone.
func TestSIMDMatchesGeneric(t *testing.T) {
	t.Logf("GOAMD64=%s: SIMDEnabled=%v", vek.BuildLevel(), vek.SIMDEnabled())
	r := rand.New(rand.NewSource(7))
	// The butterfly group at every block width up to 19 (4-lane SIMD
	// blocks, generic tails, and both together) and every group size of a
	// 64-point column transform.
	const n = 64
	for cw := 1; cw <= 19; cw++ {
		for half := 1; half <= n/2; half *= 2 {
			g := groupShape{half: half, cw: cw, stride: cw + r.Intn(4)}
			re, im := groupPlanes(groupRows(r, g), g.stride)
			twRe, twIm := make([]float64, half), make([]float64, half)
			for k := range twRe {
				twRe[k], twIm[k] = genValue(r), genValue(r)
			}
			gRe, gIm := append([]float64(nil), re...), append([]float64(nil), im...)
			vek.ButterflyGroup(re, im, g.stride, cw, twRe, twIm)
			vek.ButterflyGroupGeneric(gRe, gIm, g.stride, cw, twRe, twIm)
			if !floatsEqual(re, gRe) || !floatsEqual(im, gIm) {
				t.Fatalf("ButterflyGroup SIMD != generic (cw=%d half=%d stride=%d)", cw, half, g.stride)
			}
		}
	}
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(67)
		mk := func() []float64 {
			p := make([]float64, n)
			for i := range p {
				p[i] = genValue(r)
			}
			return p
		}
		loRe, loIm, hiRe, hiIm := mk(), mk(), mk(), mk()
		twRe, twIm := mk(), mk()
		w := genValue(r)

		cp := func(p []float64) []float64 { return append([]float64(nil), p...) }

		gLoRe, gLoIm, gHiRe, gHiIm := cp(loRe), cp(loIm), cp(hiRe), cp(hiIm)
		vek.ButterflyRow(loRe, loIm, hiRe, hiIm, twRe, twIm)
		vek.ButterflyRowGeneric(gLoRe, gLoIm, gHiRe, gHiIm, twRe, twIm)
		if !floatsEqual(loRe, gLoRe) || !floatsEqual(hiIm, gHiIm) {
			t.Fatalf("trial %d: ButterflyRow SIMD != generic (n=%d)", trial, n)
		}

		dRe, dIm, gdRe, gdIm := mk(), mk(), make([]float64, n), make([]float64, n)
		vek.CMul(dRe, dIm, loRe, loIm, hiRe, hiIm)
		vek.CMulGeneric(gdRe, gdIm, loRe, loIm, hiRe, hiIm)
		if !floatsEqual(dRe, gdRe) || !floatsEqual(dIm, gdIm) {
			t.Fatalf("trial %d: CMul SIMD != generic (n=%d)", trial, n)
		}

		acc, gAcc := mk(), []float64(nil)
		gAcc = cp(acc)
		vek.AccIntensity(acc, loRe, loIm, w)
		vek.AccIntensityGeneric(gAcc, loRe, loIm, w)
		if !floatsEqual(acc, gAcc) {
			t.Fatalf("trial %d: AccIntensity SIMD != generic (n=%d)", trial, n)
		}
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	prop := func(xs cline) bool {
		re, im := split(xs)
		out := make([]complex128, len(xs))
		vek.Join(out, re, im)
		for i := range xs {
			if math.Float64bits(real(out[i])) != math.Float64bits(real(xs[i])) ||
				math.Float64bits(imag(out[i])) != math.Float64bits(imag(xs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestEmptyAndTinySpans exercises every kernel at lengths 0..7 explicitly —
// below, at and above the SIMD width and the unroll factor — so the
// empty-slice and tail paths are covered even if quick's random lengths
// miss one.
func TestEmptyAndTinySpans(t *testing.T) {
	for n := 0; n <= 7; n++ {
		xs := make([]complex128, n)
		for i := range xs {
			xs[i] = complex(float64(i)+0.5, -float64(i))
		}
		re, im := split(xs)
		gRe, gIm := append(append([]float64(nil), re...), re...), append(append([]float64(nil), im...), im...)
		vek.ButterflyGroup(gRe, gIm, n, n, []float64{0.6}, []float64{-0.8})
		vek.ScaleInv(re, im, 4)
		vek.Zero(re)
		acc := make([]float64, n)
		vek.AccIntensity(acc, re, im, 0.25)
		out := make([]complex128, n)
		vek.Join(out, re, im)
		for i := range re {
			if re[i] != 0 {
				t.Fatalf("n=%d: Zero left re[%d] = %g", n, i, re[i])
			}
		}
	}
}

// fline is a float line with quick's awkward lengths and edge-case values.
type fline []float64

func (fline) Generate(r *rand.Rand, _ int) reflect.Value {
	xs := make(fline, r.Intn(67))
	for i := range xs {
		xs[i] = genValue(r)
	}
	return reflect.ValueOf(xs)
}

// TestConvKernelsMatchGeneric pins the convolution kernels (AVX2 on hosts
// that have it) to their Go reference loops bit-for-bit, on random
// lengths, tap counts, strides and edge-case values. Lengths up to 66 run
// the 16-wide blocks, the 4-wide loop, the overlapping last block and the
// Go loop for rows shorter than 4.
func TestConvKernelsMatchGeneric(t *testing.T) {
	row := func(src, kern fline) bool {
		n := len(src) - len(kern) + 1
		if n < 0 {
			n = 0
		}
		got, want := make([]float64, n), make([]float64, n)
		vek.ConvRow(got, src, kern)
		vek.ConvRowGeneric(want, src, kern)
		return floatsEqual(got, want)
	}
	if err := quick.Check(row, quickCfg()); err != nil {
		t.Error(err)
	}
	col := func(dst, kern fline, pad uint8) bool {
		n := len(dst)
		stride := n + int(pad%5)
		r := rand.New(rand.NewSource(int64(n)<<8 | int64(pad)))
		src := make([]float64, len(kern)*stride+n)
		for i := range src {
			src[i] = genValue(r)
		}
		got := append([]float64(nil), dst...)
		want := make([]float64, n)
		vek.ConvCol(got, src, stride, kern)
		vek.ConvColGeneric(want, src, stride, kern)
		return floatsEqual(got, want)
	}
	if err := quick.Check(col, quickCfg()); err != nil {
		t.Error(err)
	}
}
