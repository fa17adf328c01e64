package litho

import (
	"fmt"
	"math"

	"postopc/internal/dsp/vek"
	"postopc/internal/geom"
	"postopc/internal/obs"
)

// Gaussian is the fast approximate aerial model: the amplitude point-spread
// function is modeled as an isotropic Gaussian whose width tracks the
// diffraction-limited Airy core (≈0.42 λ/NA) and broadens with defocus.
// The image is |t ⊛ G|² with the transmission t, computed by separable
// spatial convolution — no FFT, linear in pixels.
//
// It reproduces the first-order proximity behaviour (iso-dense bias,
// corner rounding, line-end pullback) at a fraction of the Abbe cost and is
// the model of choice for unit tests and OPC inner loops; the Abbe model is
// used for verification-grade simulation. BenchmarkAblation_FastModel
// quantifies the CD fidelity gap.
type Gaussian struct {
	recipe Recipe
	// sigma2NM/weight2 define an optional secondary kernel component:
	// amplitude PSF = (1−w)·G(σ1) + w·G(σ2). The broad second Gaussian
	// mimics the longer-range proximity interaction of the partially
	// coherent optics, which a single narrow kernel misses entirely. Fit
	// with FitDualGaussian; zero weight degrades to the single kernel.
	sigma2NM float64
	weight2  float64

	// hAerial is the telemetry handle (see Instrument); nil when
	// uninstrumented. Write-only and allocation-free.
	hAerial *obs.Histogram //postopc:keyignore telemetry observes the computation without being an input
}

// Instrument attaches telemetry to the model: aerial latency under
// "litho.gaussian_aerial_ns", one observation per Aerial/AerialSeries
// call. Call before the model is shared between workers; a nil or
// disabled sink is a no-op.
func (g *Gaussian) Instrument(sink *obs.Sink) {
	g.hAerial = sink.LatencyHistogram("litho.gaussian_aerial_ns")
}

// NewGaussian builds the fast model from the recipe (single kernel).
func NewGaussian(r Recipe) (*Gaussian, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &Gaussian{recipe: r}, nil
}

// NewGaussianDual builds the fast model with a secondary kernel component
// of width sigma2NM and amplitude weight w (see Gaussian).
func NewGaussianDual(r Recipe, sigma2NM, w float64) (*Gaussian, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if sigma2NM <= 0 && w != 0 {
		return nil, fmt.Errorf("litho: dual Gaussian needs positive sigma2")
	}
	return &Gaussian{recipe: r, sigma2NM: sigma2NM, weight2: w}, nil
}

// Recipe returns the optical settings.
func (g *Gaussian) Recipe() Recipe { return g.recipe }

// SigmaAt returns the Gaussian amplitude PSF sigma (nm) at the given
// defocus.
func (g *Gaussian) SigmaAt(defocusNM float64) float64 {
	r := g.recipe
	// 0.30·λ/NA: the effective amplitude PSF width of a partially coherent
	// system (σ≈0.7) is markedly narrower than the coherent Airy core
	// (0.42·λ/NA); 0.30 keeps production-pitch gratings resolvable, which
	// the OPC inner loop depends on.
	sigma0 := 0.30 * r.WavelengthNM / r.NA
	// Geometric blur from defocus: the converging cone defocused by z
	// spreads by ~z·NA; the 0.30 prefactor is fitted so the dense-line CD
	// through focus tracks the Abbe reference within ~2nm
	// (BenchmarkAblation_FastModel quantifies the remaining gap).
	blur := 0.30 * math.Abs(defocusNM) * r.NA
	return math.Sqrt(sigma0*sigma0 + blur*blur)
}

// Aerial implements Model. The image comes from the free list that
// RecycleImage fills, so a caller that hands each image back images
// without allocating.
func (g *Gaussian) Aerial(mask *geom.Raster, c Corner) (*Image, error) {
	if mask.Nx == 0 || mask.Ny == 0 {
		return nil, ErrEmptyMask
	}
	t0 := g.hAerial.StartTimer()
	ks := borrowKernelScratch()
	ks.markRepeats(mask)
	out := borrowImage(mask)
	g.aerial(out, mask, c, ks)
	ks.release()
	g.hAerial.ObserveSince(t0)
	return out, nil
}

// aerial images the non-empty mask at corner c into out, an image aligned
// with mask whose Data it overwrites in full, so out's prior contents do
// not matter. It works on the kernel scratch ks, whose repeat runs must
// already describe mask (see markRepeats).
func (g *Gaussian) aerial(out *Image, mask *geom.Raster, c Corner, ks *kernelScratch) {
	r := g.recipe
	px := float64(mask.Pixel)
	// Defocus broadens both kernel components in quadrature.
	blur := 0.30 * math.Abs(c.DefocusNM) * r.NA
	s1 := math.Sqrt(sq(g.SigmaAt(0)) + blur*blur)
	ks.field = growFloats(ks.field, mask.Nx*mask.Ny)
	field := ks.field
	out.Background = blurAmplitude(field, mask, r.Polarity, s1, px, ks)
	if g.weight2 == 0 {
		for i, v := range field {
			out.Data[i] = v * v // intensity = amplitude²
		}
		return
	}
	// The broad component is blurred straight into the returned image's
	// buffer and combined with the narrow one in place.
	s2 := math.Sqrt(sq(g.sigma2NM) + blur*blur)
	wide := out.Data
	blurAmplitude(wide, mask, r.Polarity, s2, px, ks)
	w := g.weight2
	for i, v := range field {
		a := (1-w)*v + w*wide[i]
		wide[i] = a * a // intensity = amplitude²
	}
}

// markRepeats sets ks.rep[iy], for every row iy of mask, to the number of
// rows directly above it that hold the same coverage bits: 0 for the first
// row and for a row that differs from the one above. The runs depend on
// the mask alone, so they are computed once per mask and read by the blur
// of both kernel components at every corner (see blurAmplitude).
func (ks *kernelScratch) markRepeats(mask *geom.Raster) {
	nx, ny := mask.Nx, mask.Ny
	if cap(ks.rep) < ny {
		ks.rep = make([]int32, ny)
	}
	ks.rep = ks.rep[:ny]
	rep := ks.rep
	for iy := range rep {
		rep[iy] = 0
		if iy > 0 && sameBits(mask.Data[(iy-1)*nx:iy*nx], mask.Data[iy*nx:(iy+1)*nx]) {
			rep[iy] = rep[iy-1] + 1
		}
	}
}

// sameBits reports whether a and b hold the same IEEE-754 bit patterns.
func sameBits(a, b []float64) bool {
	b = b[:len(a)]
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// blurAmplitude blurs the mask's transmission amplitude (1−cov in clear
// field, cov in dark field) into dst with an isotropic Gaussian of the
// given sigma, extending edges with the background level, which it
// returns (1 in clear field, 0 in dark field). The kernel is truncated at
// 3σ and normalized to unit sum so a uniform field is preserved exactly.
// dst must have Nx*Ny elements; its prior contents are ignored. Work
// buffers come from ks, and ks.rep must hold mask's repeat runs
// (markRepeats).
//
// Both passes add the taps of every output pixel in ascending order,
// starting from +0, with no FMA, on every vek kernel path, so the images
// are bit-identical whichever path runs (TestGaussianAerialGoldenSHA).
// A row whose inputs have the same bits as the previous row's is copied
// instead of summed, which gives the same bits.
func blurAmplitude(dst []float64, mask *geom.Raster, pol Polarity, sigma, px float64, ks *kernelScratch) float64 {
	bg := 1.0
	if pol == DarkField {
		bg = 0
	}
	nx, ny := mask.Nx, mask.Ny
	rep := ks.rep[:ny]
	half := blurHalf(sigma, px)
	ks.kern = growFloats(ks.kern, 2*half+1)
	kern := ks.kern
	var ksum float64
	for i := -half; i <= half; i++ {
		v := math.Exp(-0.5 * sq(float64(i)*px/sigma))
		kern[i+half] = v
		ksum += v
	}
	for i := range kern {
		kern[i] /= ksum
	}
	// Horizontal pass. Each mask row is turned into amplitude inside a
	// background-padded row buffer (branch-free inner loop; the pad's end
	// fills are constant across rows, so they are written once) and
	// convolved into row half+iy of tmp. tmp carries half background rows
	// above and below the image, so the vertical pass has no edge case.
	// Its rows are stride floats apart, nx rounded up to whole 4-float
	// vectors, so on a 32-byte-aligned plane every row starts 32-byte
	// aligned and the kernels' 4-wide loads and stores of tmp split no
	// cache line, but for a row's overlapping last block. A mask row with
	// the same bits as the row above copies the tmp row above.
	stride := (nx + 3) &^ 3
	ks.tmp = growFloats(ks.tmp, stride*(ny+2*half))
	tmp := ks.tmp
	ks.pad = growFloats(ks.pad, nx+2*half)
	pad := ks.pad
	for i := 0; i < half; i++ {
		pad[i] = bg
		pad[nx+half+i] = bg
	}
	edge := half * stride
	for i := 0; i < edge; i++ {
		tmp[i] = bg
		tmp[len(tmp)-edge+i] = bg
	}
	amp := pad[half : half+nx]
	for iy := 0; iy < ny; iy++ {
		row := tmp[(half+iy)*stride : (half+iy)*stride+nx]
		if rep[iy] > 0 {
			copy(row, tmp[(half+iy-1)*stride:])
			continue
		}
		cov := mask.Data[iy*nx : (iy+1)*nx]
		if pol == ClearField {
			for ix, v := range cov {
				amp[ix] = 1 - v // chrome blocks light
			}
		} else {
			copy(amp, cov) // opening passes light
		}
		vek.ConvRow(row, pad, kern)
	}
	// Vertical pass: one column convolution per output row, whose
	// accumulators stay in registers across all 2·half+1 taps. Output row
	// iy reads tmp rows iy … iy+2·half, which hold mask rows iy−half …
	// iy+half. When mask rows iy−half−1 … iy+half are one repeated row,
	// rows iy−1 and iy read the same values at every tap, so row iy−1 is
	// copied.
	flat := int32(2*half + 1)
	for iy := 0; iy < ny; iy++ {
		out := dst[iy*nx : (iy+1)*nx]
		if iy+half < ny && rep[iy+half] >= flat {
			copy(out, dst[(iy-1)*nx:])
			continue
		}
		vek.ConvCol(out, tmp[iy*stride:], stride, kern)
	}
	return bg
}

// blurHalf is the half-width, in pixels, of the blur kernel of the given
// sigma: 3σ rounded up, at least one pixel.
func blurHalf(sigma, px float64) int {
	return max(int(math.Ceil(3*sigma/px)), 1)
}

// AerialSeries implements Model, sharing simulations between corners that
// differ only in dose: corners sharing a defocus alias one *Image in the
// returned slice, so callers must not mutate the returned images.
func (g *Gaussian) AerialSeries(mask *geom.Raster, corners []Corner) ([]*Image, error) {
	if mask.Nx == 0 || mask.Ny == 0 {
		return nil, ErrEmptyMask
	}
	t0 := g.hAerial.StartTimer()
	defer g.hAerial.ObserveSince(t0)
	ks := borrowKernelScratch()
	defer ks.release()
	return g.series(mask, corners, ks), nil
}

// series images the non-empty mask at every corner on the kernel scratch
// ks, aliasing corners that share a defocus (see doseAlias). The mask's
// repeat runs are marked once and shared by every corner. Each image is
// newly allocated, never taken from the free list: an aliased image must
// never be recycled.
func (g *Gaussian) series(mask *geom.Raster, corners []Corner, ks *kernelScratch) []*Image {
	ks.markRepeats(mask)
	out := make([]*Image, len(corners))
	for ci, c := range corners {
		if cj := doseAlias(corners, ci); cj != ci {
			out[ci] = out[cj]
			continue
		}
		out[ci] = NewImage(mask)
		g.aerial(out[ci], mask, c, ks)
	}
	return out
}

var (
	_ Model = (*Abbe)(nil)
	_ Model = (*Gaussian)(nil)
)
