package litho

import (
	"postopc/internal/dsp"
	"postopc/internal/dsp/vek"
	"postopc/internal/geom"
	"postopc/internal/obs"
)

// Abbe is the physical aerial-image model: partially coherent imaging
// computed by Abbe's method (source-point summation). For every sampled
// source point the mask spectrum is filtered by the (defocused) pupil
// shifted by the source tilt, inverse transformed, and the resulting
// coherent intensities are weight-summed.
//
// The per-source-point pupil filters depend only on the recipe, grid
// geometry and defocus — never on the mask — so they are precomputed once
// per (recipe, grid size, pixel, defocus) in the package-level shared
// read-mostly filter bank (see filterbank.go) and the hot loop reduces to a
// branch-free complex multiply over the filter's support rows, a
// band-limited inverse transform, and an intensity accumulation.
type Abbe struct {
	recipe    Recipe
	source    []SourcePoint //postopc:keyignore derived deterministically from recipe by NewAbbe
	recipeKey string        //postopc:keyignore the recipe's own serialization, precomputed for bank lookups

	// Telemetry handles (see Instrument); nil on an uninstrumented model.
	// They are write-only and allocation-free, so the kernel's steady-state
	// allocation budget holds with telemetry on or off.
	hAerial *obs.Histogram //postopc:keyignore telemetry observes the computation without being an input
	cBuilds *obs.Counter   //postopc:keyignore telemetry observes the computation without being an input
}

// Instrument attaches telemetry to the model: aerial latency under
// "litho.abbe_aerial_ns" (one observation per Aerial/AerialSeries call)
// and a "litho.filterbank_builds_total" counter. Call before the model is
// shared between workers; a nil or disabled sink is a no-op.
func (a *Abbe) Instrument(sink *obs.Sink) {
	a.hAerial = sink.LatencyHistogram("litho.abbe_aerial_ns")
	a.cBuilds = sink.Counter("litho.filterbank_builds_total")
}

// NewAbbe builds an Abbe model from the recipe.
func NewAbbe(r Recipe) (*Abbe, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &Abbe{
		recipe:    r,
		source:    SampleSource(r.SigmaInner, r.SigmaOuter, r.SourceRings),
		recipeKey: string(r.AppendKey(nil)),
	}, nil
}

// Recipe returns the optical settings.
func (a *Abbe) Recipe() Recipe { return a.recipe }

// SourcePoints exposes the sampled source (for ablation studies).
func (a *Abbe) SourcePoints() []SourcePoint { return a.source }

// Aerial implements Model. The single-corner path skips the series
// bookkeeping: in steady state (warm filter bank and scratch pools) it
// allocates only the returned Image.
func (a *Abbe) Aerial(mask *geom.Raster, c Corner) (*Image, error) {
	t0 := a.hAerial.StartTimer()
	im, err := a.aerialOne(mask, c)
	a.hAerial.ObserveSince(t0)
	return im, err
}

// aerialOne is the uninstrumented single-corner imaging path, shared by
// Aerial and AerialSeries so each public call observes exactly once.
func (a *Abbe) aerialOne(mask *geom.Raster, c Corner) (*Image, error) {
	if mask.Nx == 0 || mask.Ny == 0 {
		return nil, ErrEmptyMask
	}
	nx := dsp.NextPow2(mask.Nx)
	ny := dsp.NextPow2(mask.Ny)
	fs := a.filtersFor(nx, ny, float64(mask.Pixel), c.DefocusNM)
	bg := a.backgroundLevel()
	t := a.transmissionPlanes(mask, nx, ny, bg)
	defer dsp.ReturnFGrid(t)
	if err := t.FFT2DBandSelect(fs.unionRows); err != nil {
		return nil, err
	}
	return a.aerialFiltered(t, mask, fs, bg)
}

// backgroundLevel is the transmission of the unpatterned field for the
// recipe's polarity.
//
//postopc:allocfree
func (a *Abbe) backgroundLevel() float64 {
	if a.recipe.Polarity == DarkField {
		return 0
	}
	return 1
}

// transmissionPlanes builds the complex transmission over a borrowed
// power-of-two plane grid, padding outside the mask with the background
// level. The transmission is real, so the imaginary plane is simply zeroed.
// The caller owns the grid and must return it to the pool.
//
//postopc:allocfree
func (a *Abbe) transmissionPlanes(mask *geom.Raster, nx, ny int, bg float64) *dsp.FGrid {
	t := dsp.BorrowFGrid(nx, ny)
	re := t.Re
	for i := range re {
		re[i] = bg
	}
	vek.Zero(t.Im)
	for iy := 0; iy < mask.Ny; iy++ {
		row := re[iy*nx : iy*nx+mask.Nx]
		mrow := mask.Data[iy*mask.Nx : (iy+1)*mask.Nx]
		if a.recipe.Polarity == ClearField {
			for ix, cov := range mrow {
				row[ix] = 1 - cov // chrome blocks light
			}
		} else {
			for ix, cov := range mrow {
				row[ix] = cov // opening passes light
			}
		}
	}
	return t
}

// AerialSeries computes aerial images for several process corners while
// reusing the (expensive) mask spectrum. Dose does not change the image —
// it is folded into the resist threshold — so corners that share a defocus
// alias one *Image in the returned slice. Callers must treat the returned
// images as immutable: mutating one mutates it for every corner that
// shares it.
func (a *Abbe) AerialSeries(mask *geom.Raster, corners []Corner) ([]*Image, error) {
	if mask.Nx == 0 || mask.Ny == 0 {
		return nil, ErrEmptyMask
	}
	t0 := a.hAerial.StartTimer()
	defer a.hAerial.ObserveSince(t0)
	if len(corners) == 1 {
		im, err := a.aerialOne(mask, corners[0])
		if err != nil {
			return nil, err
		}
		return []*Image{im}, nil
	}
	nx := dsp.NextPow2(mask.Nx)
	ny := dsp.NextPow2(mask.Ny)
	px := float64(mask.Pixel)

	// Fetch the filter set of every unique corner defocus up front, so the
	// forward transform knows which spectrum rows the filters will read.
	// sets[ci] stays nil where an earlier corner shares the defocus (the
	// image is aliased there).
	sets := make([]*filterSet, len(corners))
	var spectrumRows []int
	for ci, c := range corners {
		if doseAlias(corners, ci) != ci {
			continue
		}
		sets[ci] = a.filtersFor(nx, ny, px, c.DefocusNM)
		spectrumRows = mergeRows(spectrumRows, sets[ci].unionRows)
	}

	// Transmission grid, padded with the polarity's background level.
	bg := a.backgroundLevel()
	t := a.transmissionPlanes(mask, nx, ny, bg)
	defer dsp.ReturnFGrid(t)
	// The filters only read the union support rows of the spectrum, so the
	// forward transform computes just those.
	if err := t.FFT2DBandSelect(spectrumRows); err != nil {
		return nil, err
	}
	out := make([]*Image, len(corners))
	for ci := range corners {
		if cj := doseAlias(corners, ci); cj != ci {
			out[ci] = out[cj]
			continue
		}
		im, err := a.aerialFiltered(t, mask, sets[ci], bg)
		if err != nil {
			return nil, err
		}
		out[ci] = im
	}
	return out, nil
}

// aerialFiltered runs the folded source-point sum for one filter set.
// spectrum is the band-selected FFT of the transmission planes and must not
// be modified. The whole loop runs on the vek kernel layer: a CMul per
// support row (work = spectrum × P(f + fs)), the band-limited inverse
// transform, and an AccIntensity per image row — each performing per
// element the exact float sequence of the complex128 loop it replaced.
//
// Only the image's own pixels are computed: the inverse keeps columns
// [0, cols), mask.Nx rounded up to whole 4-lane vectors, of rows
// [0, mask.Ny), and each kept row accumulates straight into the returned
// image. The inverse requires +0 in the kept columns of every non-support
// row, so those are zeroed for each source point; the columns beyond cols
// are never read.
func (a *Abbe) aerialFiltered(spectrum *dsp.FGrid, mask *geom.Raster, fs *filterSet, bg float64) (*Image, error) {
	nx, ny := spectrum.Nx, spectrum.Ny
	cols := min((mask.Nx+3)&^3, nx)
	out := NewImage(mask)
	out.Background = bg
	work := dsp.BorrowFGrid(nx, ny)
	defer dsp.ReturnFGrid(work)
	for pi := range fs.points {
		pf := &fs.points[pi]
		// work = spectrum × P(f + fs) on the support rows (ascending), +0
		// in the kept columns of every other row.
		next := 0
		for iy := 0; iy < ny; iy++ {
			s := iy * nx
			if next < len(pf.rows) && pf.rows[next] == iy {
				o := next * nx
				vek.CMul(
					work.Re[s:s+nx], work.Im[s:s+nx],
					spectrum.Re[s:s+nx], spectrum.Im[s:s+nx],
					pf.valsRe[o:o+nx], pf.valsIm[o:o+nx])
				next++
				continue
			}
			vek.Zero(work.Re[s : s+cols])
			vek.Zero(work.Im[s : s+cols])
		}
		if err := work.IFFT2DBandLimited(pf.rows, cols, mask.Ny); err != nil {
			return nil, err
		}
		for iy := 0; iy < mask.Ny; iy++ {
			s := iy * nx
			vek.AccIntensity(out.Data[iy*mask.Nx:(iy+1)*mask.Nx], work.Re[s:s+mask.Nx], work.Im[s:s+mask.Nx], pf.weight)
		}
	}
	return out, nil
}
