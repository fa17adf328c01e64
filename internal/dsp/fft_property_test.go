package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// randGrid fills a fresh nx×ny plane grid with unit-normal complex noise.
func randGrid(rnd *rand.Rand, nx, ny int) *FGrid {
	g := NewFGrid(nx, ny)
	for i := range g.Re {
		g.Re[i], g.Im[i] = rnd.NormFloat64(), rnd.NormFloat64()
	}
	return g
}

// cloneGrid deep-copies a plane grid.
func cloneGrid(g *FGrid) *FGrid {
	return &FGrid{Nx: g.Nx, Ny: g.Ny, Re: append([]float64(nil), g.Re...), Im: append([]float64(nil), g.Im...)}
}

// sameBits reports whether two plane grids agree bit for bit.
func sameBits(a, b *FGrid) (int, bool) {
	for i := range a.Re {
		if math.Float64bits(a.Re[i]) != math.Float64bits(b.Re[i]) ||
			math.Float64bits(a.Im[i]) != math.Float64bits(b.Im[i]) {
			return i, false
		}
	}
	return 0, true
}

// randPow2Dims draws non-square power-of-two grid dimensions.
func randPow2Dims(rnd *rand.Rand) (nx, ny int) {
	nx = 1 << (1 + rnd.Intn(6)) // 2..64
	ny = 1 << (1 + rnd.Intn(6))
	if nx == ny {
		ny *= 2
	}
	return
}

func TestFFT2DParsevalProperty(t *testing.T) {
	// Energy conservation on non-square grids:
	// sum |x|² = (1/(Nx·Ny)) sum |X|².
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		nx, ny := randPow2Dims(rnd)
		g := randGrid(rnd, nx, ny)
		e := g.Energy()
		if err := g.FFT2D(); err != nil {
			return false
		}
		ef := g.Energy() / float64(nx*ny)
		return math.Abs(e-ef) <= 1e-9*e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFFT2DImpulseFlatSpectrum(t *testing.T) {
	// A delta at the grid origin transforms to an all-ones spectrum.
	g := NewFGrid(32, 8)
	g.Set(0, 0, 1)
	if err := g.FFT2D(); err != nil {
		t.Fatal(err)
	}
	for i := range g.Re {
		if v := complex(g.Re[i], g.Im[i]); cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFT2DRoundTripNonSquareProperty(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		nx, ny := randPow2Dims(rnd)
		g := randGrid(rnd, nx, ny)
		orig := cloneGrid(g)
		if err := g.FFT2D(); err != nil {
			return false
		}
		if err := g.IFFT2D(); err != nil {
			return false
		}
		for i := range g.Re {
			if cmplx.Abs(complex(g.Re[i]-orig.Re[i], g.Im[i]-orig.Im[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFFT2DDeterminism pins the run-to-run determinism contract: two
// transforms of the same input must be byte-identical, bit for bit. The
// plan cache is warmed first so a cold- and warm-cache transform are
// compared too — building the twiddle tables must not move a result.
func TestFFT2DDeterminism(t *testing.T) {
	mk := func() *FGrid {
		r := rand.New(rand.NewSource(99))
		return randGrid(r, 64, 32)
	}
	a := mk()
	if err := a.FFT2D(); err != nil {
		t.Fatal(err)
	}
	b := mk()
	if err := b.FFT2D(); err != nil {
		t.Fatal(err)
	}
	if i, ok := sameBits(a, b); !ok {
		t.Fatalf("bin %d differs between identical transforms: %v vs %v", i, a.At(i%64, i/64), b.At(i%64, i/64))
	}
}

// TestIFFT2DBandLimitedMatchesFull checks the pruned inverse against the
// full one: for a spectrum whose energy is confined to the listed rows the
// two are the same computation (the inverse FFT of an all-zero row is
// identically zero), so they must agree bit for bit.
func TestIFFT2DBandLimitedMatchesFull(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	const nx, ny = 32, 64
	rows := []int{0, 1, 2, 3, 60, 61, 62, 63} // band around DC with wraparound
	g := NewFGrid(nx, ny)
	for _, iy := range rows {
		for ix := 0; ix < nx; ix++ {
			g.Set(ix, iy, complex(rnd.NormFloat64(), rnd.NormFloat64()))
		}
	}
	full := cloneGrid(g)
	if err := full.IFFT2D(); err != nil {
		t.Fatal(err)
	}
	if err := g.IFFT2DBandLimited(rows, nx, ny); err != nil {
		t.Fatal(err)
	}
	if i, ok := sameBits(g, full); !ok {
		t.Fatalf("band-limited inverse differs from full at %d: %v vs %v",
			i, g.At(i%nx, i/nx), full.At(i%nx, i/nx))
	}
}

// TestIFFT2DBandLimitedKeptRegionProperty checks the cropped, zero-group
// skipping inverse against the full IFFT2D on random spectra: for every
// support shape (a band around DC that wraps, scattered rows, one row,
// every row, no row) and every kept size, the kept region must match bit
// for bit. The 32×8192 grid is taller than the support bitmap's stack
// buffer, so it covers the heap path of the bookkeeping too.
func TestIFFT2DBandLimitedKeptRegionProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	for _, dims := range []struct{ nx, ny int }{{32, 64}, {64, 32}, {32, 8192}} {
		nx, ny := dims.nx, dims.ny
		var band, scattered, every []int
		for iy := 0; iy < ny; iy++ {
			if iy < 5 || iy >= ny-4 {
				band = append(band, iy)
			}
			if rnd.Intn(5) == 0 {
				scattered = append(scattered, iy)
			}
			every = append(every, iy)
		}
		supports := map[string][]int{
			"band":      band,
			"scattered": scattered,
			"one":       {rnd.Intn(ny)},
			"every":     every,
			"none":      nil,
		}
		for name, rows := range supports {
			spec := NewFGrid(nx, ny)
			for _, iy := range rows {
				for ix := 0; ix < nx; ix++ {
					spec.Set(ix, iy, complex(rnd.NormFloat64(), rnd.NormFloat64()))
				}
			}
			full := cloneGrid(spec)
			if err := full.IFFT2D(); err != nil {
				t.Fatal(err)
			}
			for _, cols := range []int{1, 3, 4, 17, nx} {
				for _, outRows := range []int{1, ny/2 + 1, ny} {
					g := cloneGrid(spec)
					if err := g.IFFT2DBandLimited(rows, cols, outRows); err != nil {
						t.Fatal(err)
					}
					for iy := 0; iy < outRows; iy++ {
						for ix := 0; ix < cols; ix++ {
							i := iy*nx + ix
							if math.Float64bits(g.Re[i]) != math.Float64bits(full.Re[i]) ||
								math.Float64bits(g.Im[i]) != math.Float64bits(full.Im[i]) {
								t.Fatalf("%dx%d %s support, kept %dx%d: (%d,%d) = %v, full %v",
									nx, ny, name, cols, outRows, ix, iy, g.At(ix, iy), full.At(ix, iy))
							}
						}
					}
				}
			}
		}
	}
}

// TestFFT2DBandSelectMatchesFull checks the forward band-select transform
// against a full FFT2D on the selected rows. The pass order is transposed
// (columns first), so agreement is numerical, not bitwise.
func TestFFT2DBandSelectMatchesFull(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	const nx, ny = 16, 32
	g := randGrid(rnd, nx, ny)
	full := cloneGrid(g)
	if err := full.FFT2D(); err != nil {
		t.Fatal(err)
	}
	rows := []int{0, 2, 5, 31}
	if err := g.FFT2DBandSelect(rows); err != nil {
		t.Fatal(err)
	}
	for _, iy := range rows {
		for ix := 0; ix < nx; ix++ {
			if cmplx.Abs(g.At(ix, iy)-full.At(ix, iy)) > 1e-9 {
				t.Fatalf("band-select row %d bin %d = %v, full = %v",
					iy, ix, g.At(ix, iy), full.At(ix, iy))
			}
		}
	}
}

func TestBandRowsValidation(t *testing.T) {
	g := NewFGrid(8, 8)
	if err := g.FFT2DBandSelect([]int{8}); err == nil {
		t.Fatal("expected error for out-of-range band-select row")
	}
	if err := g.IFFT2DBandLimited([]int{-1}, 8, 8); err == nil {
		t.Fatal("expected error for negative band-limited row")
	}
	for _, kept := range [][2]int{{0, 8}, {9, 8}, {8, 0}, {8, 9}} {
		if err := g.IFFT2DBandLimited(nil, kept[0], kept[1]); err == nil {
			t.Fatalf("expected error for kept region %dx%d of an 8x8 grid", kept[0], kept[1])
		}
	}
	ng := NewFGrid(3, 8)
	if err := ng.FFT2DBandSelect(nil); err == nil {
		t.Fatal("expected error for non-power-of-two grid")
	}
	if err := ng.IFFT2DBandLimited(nil, 3, 8); err == nil {
		t.Fatal("expected error for non-power-of-two grid")
	}
}

func TestBorrowGridReuse(t *testing.T) {
	g := BorrowFGrid(16, 8)
	if g.Nx != 16 || g.Ny != 8 || len(g.Re) != 128 || len(g.Im) != 128 {
		t.Fatalf("borrowed grid has wrong shape: %dx%d len %d/%d", g.Nx, g.Ny, len(g.Re), len(g.Im))
	}
	g.Set(3, 2, 42)
	ReturnFGrid(g)
	// A smaller borrow may reuse the same backing arrays; contents are
	// unspecified, but the shape must be exact.
	h := BorrowFGrid(8, 8)
	if h.Nx != 8 || h.Ny != 8 || len(h.Re) != 64 || len(h.Im) != 64 {
		t.Fatalf("reborrowed grid has wrong shape: %dx%d len %d/%d", h.Nx, h.Ny, len(h.Re), len(h.Im))
	}
	h.Clear()
	for i := range h.Re {
		if h.Re[i] != 0 || h.Im[i] != 0 {
			t.Fatalf("Clear left %v at %d", h.At(i%8, i/8), i)
		}
	}
	ReturnFGrid(h)
	ReturnFGrid(nil) // must not panic
}

// The pool keeps returned grids across garbage collections and hands them
// out again: 17 grids borrowed at once (more than any number of imaging
// workers holds) and returned come back after two collections without a
// new allocation.
func TestBorrowGridSurvivesGC(t *testing.T) {
	const peak = 17
	var first [peak]*FGrid
	for i := range first {
		first[i] = BorrowFGrid(64, 32)
	}
	for _, g := range first {
		ReturnFGrid(g)
	}
	runtime.GC()
	runtime.GC()
	var again [peak]*FGrid
	for i := range again {
		again[i] = BorrowFGrid(64, 32)
	}
	for _, g := range again {
		found := false
		for _, f := range first {
			found = found || f == g
		}
		if !found {
			t.Fatal("a grid returned before two collections was not handed out again")
		}
		ReturnFGrid(g)
	}
	allocs := testing.AllocsPerRun(3, func() {
		runtime.GC()
		runtime.GC()
		var gs [peak]*FGrid
		for i := range gs {
			gs[i] = BorrowFGrid(64, 32)
		}
		for _, g := range gs {
			ReturnFGrid(g)
		}
	})
	if allocs != 0 {
		t.Fatalf("borrowing %d pooled grids after two collections allocated %v times, want 0", peak, allocs)
	}
}
