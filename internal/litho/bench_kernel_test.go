package litho

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"postopc/internal/geom"
	"postopc/internal/report"
)

// Micro-benchmarks of the optical kernel engine (filter bank + twiddle-cached
// FFT + scratch pooling). BenchmarkKernelReport additionally emits the
// kernel table as text and CSV (the BENCH_kernel.json numbers come from
// these benches):
//
//	go test -run=NONE -bench=Kernel -benchmem ./internal/litho/
//
// Pre-engine baseline on the same 256×256 window (commit 6f68ef9):
// Abbe 115.9ms/op 35 allocs/op, dual Gaussian 9.7ms/op 12 allocs/op.

// benchMask256 rasterizes a 7-line grating onto an exactly 256×256 grid at
// the testRecipe pixel (10nm), the window size of a production gate clip.
func benchMask256() *geom.Raster {
	la := LineArray{WidthNM: 130, PitchNM: 280, Count: 7, LengthNM: 2000}
	ra := geom.NewRaster(geom.R(-1280, -1280, 1280, 1280), 10)
	for _, r := range la.Rects() {
		ra.AddRect(r)
	}
	ra.Clamp()
	return ra
}

func benchAbbe(b *testing.B) *Abbe {
	b.Helper()
	m, err := NewAbbe(testRecipe())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkAbbeAerial is the headline kernel bench: one nominal Abbe window
// with the default ring source. Steady state reuses the cached pupil-filter
// bank and every scratch pool; only the returned Image allocates.
func BenchmarkAbbeAerial(b *testing.B) {
	m := benchAbbe(b)
	mask := benchMask256()
	corners := []Corner{Nominal}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.AerialSeries(mask, corners); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAbbeAerialDefocus exercises the defocused path: complex pupil
// phases and no Hermitian source folding, so the source sum runs at full
// length.
func BenchmarkAbbeAerialDefocus(b *testing.B) {
	m := benchAbbe(b)
	mask := benchMask256()
	corners := []Corner{{DefocusNM: 120, Dose: 1}}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.AerialSeries(mask, corners); err != nil {
			b.Fatal(err)
		}
	}
}

// windowCorners are flow.VariationCorners at the PDK's process window
// (±120 nm defocus, ±5% dose): nominal, max defocus and the two dose
// extremes. The dose corners alias the nominal image, so a series images
// two defocus values.
var windowCorners = []Corner{Nominal, {DefocusNM: 120, Dose: 1}, {Dose: 0.95}, {Dose: 1.05}}

// BenchmarkAbbeAerialWindow images the two gate-window-shaped golden masks
// through AerialSeries at the four variation corners, as the sign-off flow
// does for each tagged gate. 211×324 px pads to 256×512 and 289×324 px to
// 512×512, so the crop of the inverse transform shows here and not on the
// exactly 256×256 grating.
func BenchmarkAbbeAerialWindow(b *testing.B) {
	for _, nx := range []int{211, 289} {
		mask := windowMask(nx)
		b.Run(fmt.Sprintf("%dx%d", mask.Nx, mask.Ny), func(b *testing.B) {
			m := benchAbbe(b)
			if _, err := m.AerialSeries(mask, windowCorners); err != nil { // build the filter sets
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.AerialSeries(mask, windowCorners); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGaussianAerial times the dual-kernel fast model on the same
// window (pooled convolution scratch, hoisted pad fill).
func BenchmarkGaussianAerial(b *testing.B) {
	m, err := NewGaussianDual(testRecipe(), 120, 0.15)
	if err != nil {
		b.Fatal(err)
	}
	mask := benchMask256()
	corners := []Corner{Nominal}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.AerialSeries(mask, corners); err != nil {
			b.Fatal(err)
		}
	}
}

// opcStripMask is an OPC-like strip-window mask, nx × 753 px at 10 nm:
// three cell rows of a 9-line 90/250 poly grating, 2 µm lines with 510 nm
// between rows, a poly bar and a contact. Each line edge is cut as OPC
// fragments it (60 nm at a line end, then 140 nm); the three fragments at
// each end carry their own biases of up to 6 nm and the interior fragments
// one converged bias. Most rows have the same bits as the row above, and
// the line interiors and row gaps give flat bands, as on the masks OPC
// hands the fast model.
func opcStripMask(nx int) *geom.Raster {
	w := geom.Coord(nx) * 10
	ra := geom.NewRaster(geom.R(-w/2, -3765, w-w/2, 3765), 10)
	la := LineArray{WidthNM: 90, PitchNM: 250, Count: 9, LengthNM: 2000}
	cuts := []geom.Coord{0, 60, 200, 340, 1660, 1800, 1940, 2000}
	bias := []geom.Coord{6, 4, -3, 2, -5}
	for row := geom.Coord(-1); row <= 1; row++ {
		for li, r := range la.Rects() {
			y0 := r.Y0 + row*2510
			for k := 0; k+1 < len(cuts); k++ {
				left, right := bias[(k+li)%len(bias)], bias[(k+2*li+1)%len(bias)]
				if k == 3 {
					left, right = 2, 3
				}
				ra.AddRect(geom.R(r.X0-left, y0+cuts[k], r.X1+right, y0+cuts[k+1]))
			}
		}
	}
	ra.AddRect(geom.R(-1100, 3300, 900, 3420))
	ra.AddRect(geom.R(430, -2900, 555, -2760))
	ra.Clamp()
	return ra
}

// BenchmarkGaussianAerialStrip times the fast model as the OPC loop calls
// it on a strip window: one nominal Aerial of the dual model at the PDK
// calibration (σ2 = 200 nm, w = −0.10) on opcStripMask, 251, 252 or 254 px
// wide. Only 252 px rows are whole 4-float vectors.
func BenchmarkGaussianAerialStrip(b *testing.B) {
	m, err := NewGaussianDual(testRecipe(), 200, -0.10)
	if err != nil {
		b.Fatal(err)
	}
	for _, nx := range []int{251, 252, 254} {
		mask := opcStripMask(nx)
		b.Run(fmt.Sprintf("%dx%d", mask.Nx, mask.Ny), func(b *testing.B) {
			if _, err := m.Aerial(mask, Nominal); err != nil { // warm the scratch
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Aerial(mask, Nominal); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// kernelPrintGuards backs printKernelOnce (same pattern as the root bench
// harness): the testing package re-invokes fast benchmarks with growing
// b.N, and every invocation restarts at i == 0.
var kernelPrintGuards sync.Map

func printKernelOnce(b *testing.B, i int, fn func()) {
	if i != 0 {
		return
	}
	once, _ := kernelPrintGuards.LoadOrStore(b.Name(), &sync.Once{})
	once.(*sync.Once).Do(fn)
}

// BenchmarkKernelReport measures every kernel once and emits the table as
// aligned text plus CSV (ns/op and allocs/op per kernel). `make
// bench-kernel` runs it with -short, which trims the sample count for CI.
func BenchmarkKernelReport(b *testing.B) {
	mask := benchMask256()
	abbe := benchAbbe(b)
	gauss, err := NewGaussianDual(testRecipe(), 120, 0.15)
	if err != nil {
		b.Fatal(err)
	}
	nominal := []Corner{Nominal}
	defocus := []Corner{{DefocusNM: 120, Dose: 1}}
	kernels := []struct {
		name string
		run  func() error
	}{
		{"abbe-nominal", func() error { _, err := abbe.AerialSeries(mask, nominal); return err }},
		{"abbe-defocus120", func() error { _, err := abbe.AerialSeries(mask, defocus); return err }},
		{"gaussian-dual", func() error { _, err := gauss.AerialSeries(mask, nominal); return err }},
	}
	samples := 10
	if testing.Short() {
		samples = 2
	}
	for i := 0; i < b.N; i++ {
		printKernelOnce(b, i, func() {
			tb := report.NewTable("optical kernel engine: 256×256 window, default ring source",
				"kernel", "ns/op", "allocs/op")
			for _, k := range kernels {
				if err := k.run(); err != nil { // warm pools and filter bank
					b.Fatal(err)
				}
				allocs := testing.AllocsPerRun(samples, func() {
					if err := k.run(); err != nil {
						b.Fatal(err)
					}
				})
				t0 := time.Now()
				for s := 0; s < samples; s++ {
					if err := k.run(); err != nil {
						b.Fatal(err)
					}
				}
				nsOp := time.Since(t0).Nanoseconds() / int64(samples)
				tb.AddF(0, k.name, nsOp, allocs)
			}
			tb.Fprint(os.Stdout)
			tb.CSV(os.Stdout)
		})
	}
}
