package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"postopc/internal/dsp/vek"
)

// fft1 transforms x in place as one line: an n×1 plane grid, whose column
// pass is the identity. len(x) must be a power of two.
func fft1(x []complex128, inverse bool) error {
	f := NewFGrid(len(x), 1)
	vek.Split(f.Re, f.Im, x)
	var err error
	if inverse {
		err = f.IFFT2D()
	} else {
		err = f.FFT2D()
	}
	vek.Join(x, f.Re, f.Im)
	return err
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 100: 128, 128: 128, 129: 256}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 12, 1023} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	if err := fft1(make([]complex128, 12), false); err == nil {
		t.Fatal("expected error for length 12")
	}
	g := NewFGrid(3, 4)
	if err := g.FFT2D(); err == nil {
		t.Fatal("expected error for 3x4 grid")
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a delta at 0 is all-ones.
	x := make([]complex128, 8)
	x[0] = 1
	if err := fft1(x, false); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A pure complex exponential at bin k concentrates all energy in bin k.
	const n, k = 64, 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(k*i)/n))
	}
	if err := fft1(x, false); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		want := 0.0
		if i == k {
			want = n
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Fatalf("bin %d magnitude = %g, want %g", i, cmplx.Abs(v), want)
		}
	}
}

func randSignal(rnd *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rnd.NormFloat64(), rnd.NormFloat64())
	}
	return x
}

func TestFFTRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rnd.Intn(9)) // 2..1024
		x := randSignal(rnd, n)
		orig := append([]complex128(nil), x...)
		if err := fft1(x, false); err != nil {
			return false
		}
		if err := fft1(x, true); err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTParseval(t *testing.T) {
	// sum |x|^2 = (1/N) sum |X|^2.
	rnd := rand.New(rand.NewSource(7))
	x := randSignal(rnd, 256)
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	if err := fft1(x, false); err != nil {
		t.Fatal(err)
	}
	var ef float64
	for _, v := range x {
		ef += real(v)*real(v) + imag(v)*imag(v)
	}
	ef /= 256
	if math.Abs(e-ef) > 1e-8*e {
		t.Fatalf("Parseval violated: %g vs %g", e, ef)
	}
}

func TestFFTLinearity(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	a := randSignal(rnd, 128)
	b := randSignal(rnd, 128)
	sum := make([]complex128, 128)
	for i := range sum {
		sum[i] = 2*a[i] + 3*b[i]
	}
	fa := append([]complex128(nil), a...)
	fb := append([]complex128(nil), b...)
	fs := append([]complex128(nil), sum...)
	_ = fft1(fa, false)
	_ = fft1(fb, false)
	_ = fft1(fs, false)
	for i := range fs {
		if cmplx.Abs(fs[i]-(2*fa[i]+3*fb[i])) > 1e-8 {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

func TestFFT2DRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	g := randGrid(rnd, 32, 16)
	orig := cloneGrid(g)
	if err := g.FFT2D(); err != nil {
		t.Fatal(err)
	}
	if err := g.IFFT2D(); err != nil {
		t.Fatal(err)
	}
	for i := range g.Re {
		if cmplx.Abs(complex(g.Re[i]-orig.Re[i], g.Im[i]-orig.Im[i])) > 1e-9 {
			t.Fatalf("2D round trip mismatch at %d", i)
		}
	}
}

func TestFFT2DSeparableTone(t *testing.T) {
	// A 2-D plane wave concentrates in a single 2-D bin.
	const nx, ny, kx, ky = 16, 16, 3, 5
	g := NewFGrid(nx, ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			ph := 2 * math.Pi * (float64(kx*ix)/nx + float64(ky*iy)/ny)
			g.Set(ix, iy, cmplx.Exp(complex(0, ph)))
		}
	}
	if err := g.FFT2D(); err != nil {
		t.Fatal(err)
	}
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			want := 0.0
			if ix == kx && iy == ky {
				want = nx * ny
			}
			if math.Abs(cmplx.Abs(g.At(ix, iy))-want) > 1e-8 {
				t.Fatalf("bin (%d,%d) = %g, want %g", ix, iy, cmplx.Abs(g.At(ix, iy)), want)
			}
		}
	}
}

func TestFreqIndex(t *testing.T) {
	n := 8
	want := []int{0, 1, 2, 3, -4, -3, -2, -1}
	for i, w := range want {
		if got := FreqIndex(i, n); got != w {
			t.Errorf("FreqIndex(%d,%d) = %d, want %d", i, n, got, w)
		}
	}
}

func TestGridAccessors(t *testing.T) {
	g := NewFGrid(4, 3)
	g.Set(2, 1, 5+6i)
	if g.At(2, 1) != 5+6i || g.Re[6] != 5 || g.Im[6] != 6 {
		t.Fatal("Set/At mismatch")
	}
	if g.Energy() != 61 {
		t.Fatalf("Energy = %g", g.Energy())
	}
	g.Clear()
	if g.At(2, 1) != 0 || g.Energy() != 0 {
		t.Fatal("Clear left a value behind")
	}
}

func BenchmarkFFT1D1024(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	x := randSignal(rnd, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := append([]complex128(nil), x...)
		_ = fft1(buf, false)
	}
}

func BenchmarkFFT2D256(b *testing.B) {
	g := NewFGrid(256, 256)
	rnd := rand.New(rand.NewSource(1))
	for i := range g.Re {
		g.Re[i] = rnd.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cloneGrid(g)
		_ = c.FFT2D()
	}
}
