// Package litho simulates optical projection lithography: partially coherent
// aerial-image formation (Abbe source-point summation), a constant-threshold
// resist model, process-window (focus/dose) excursions, printed-contour
// extraction and CD measurement.
//
// This is the "patterning process simulation" substrate of the post-OPC
// timing flow. It is physically faithful but uncalibrated: wavelength, NA
// and partial coherence are real knobs, and proximity behaviour (iso-dense
// bias, line-end pullback, corner rounding) emerges from the optics rather
// than from fitted heuristics.
package litho

import (
	"errors"
	"fmt"

	"postopc/internal/geom"
)

// Polarity selects which side of the resist threshold prints.
type Polarity int

const (
	// ClearField: mask features are opaque (chrome) lines on a clear
	// background; resist feature remains where intensity is BELOW the
	// threshold. This is how poly gates print.
	ClearField Polarity = iota
	// DarkField: mask features are openings in chrome; the feature prints
	// where intensity is ABOVE the threshold (contacts, vias).
	DarkField
)

// Recipe holds the optical and resist settings of the exposure tool.
type Recipe struct {
	// WavelengthNM is the exposure wavelength λ in nm (193 for ArF).
	WavelengthNM float64
	// NA is the numerical aperture of the projection lens.
	NA float64
	// SigmaOuter is the outer partial-coherence factor of the source.
	SigmaOuter float64
	// SigmaInner is the inner radius for annular illumination
	// (0 = conventional disk source).
	SigmaInner float64
	// SourceRings controls Abbe source sampling density: the number of
	// concentric rings used to sample the source. Typical 3–5.
	SourceRings int
	// Threshold is the constant resist threshold as a fraction of the
	// clear-field intensity (0 < Threshold < 1).
	Threshold float64
	// PixelNM is the simulation raster pitch in nm.
	PixelNM geom.Coord
	// GuardNM is the optical guard band clipped around every simulation
	// window so that FFT periodicity does not contaminate the result.
	GuardNM geom.Coord
	// Polarity selects the print convention (ClearField for poly).
	Polarity Polarity
}

// Validate checks the recipe for physically meaningful settings.
func (r Recipe) Validate() error {
	switch {
	case r.WavelengthNM <= 0:
		return fmt.Errorf("litho: wavelength %g must be positive", r.WavelengthNM)
	case r.NA <= 0 || r.NA >= 1.6:
		return fmt.Errorf("litho: NA %g out of range (0, 1.6)", r.NA)
	case r.SigmaOuter <= 0 || r.SigmaOuter > 1:
		return fmt.Errorf("litho: sigma outer %g out of range (0, 1]", r.SigmaOuter)
	case r.SigmaInner < 0 || r.SigmaInner >= r.SigmaOuter:
		return fmt.Errorf("litho: sigma inner %g out of range [0, outer)", r.SigmaInner)
	case r.SourceRings < 1:
		return fmt.Errorf("litho: source rings %d must be >= 1", r.SourceRings)
	case r.Threshold <= 0 || r.Threshold >= 1:
		return fmt.Errorf("litho: threshold %g out of range (0, 1)", r.Threshold)
	case r.PixelNM <= 0:
		return fmt.Errorf("litho: pixel pitch %d must be positive", r.PixelNM)
	case r.GuardNM < 0:
		return fmt.Errorf("litho: guard band %d must be non-negative", r.GuardNM)
	}
	return nil
}

// RayleighHalfPitch returns the classic resolution estimate
// k1·λ/NA with k1 = 0.5 (smallest half pitch the optics can form with
// conventional illumination), in nm.
func (r Recipe) RayleighHalfPitch() float64 {
	return 0.5 * r.WavelengthNM / r.NA
}

// DepthOfFocus returns the Rayleigh depth of focus λ/NA² in nm.
func (r Recipe) DepthOfFocus() float64 {
	return r.WavelengthNM / (r.NA * r.NA)
}

// Corner is one process-window condition: a focus excursion and a dose
// multiplier. The nominal condition is {0, 1}.
type Corner struct {
	// DefocusNM is the focus error in nm (0 = best focus).
	DefocusNM float64
	// Dose is the relative exposure dose (1 = nominal). Higher dose moves
	// the printed edge of a clear-field line inward (thinner line).
	Dose float64
}

// Nominal is the centered process condition.
var Nominal = Corner{DefocusNM: 0, Dose: 1}

// EffectiveThreshold folds the dose excursion into the resist threshold:
// increasing the dose scales the delivered intensity, which is equivalent to
// lowering the threshold on the nominal image.
func (r Recipe) EffectiveThreshold(c Corner) float64 {
	if c.Dose <= 0 {
		return r.Threshold
	}
	return r.Threshold / c.Dose
}

// doseAlias returns the index of the first corner that shares corner i's
// defocus: i itself unless an earlier corner does. Dose never changes the
// image (EffectiveThreshold folds it into the threshold), so corners with
// equal defocus share one *Image.
func doseAlias(corners []Corner, i int) int {
	for j, p := range corners[:i] {
		if p.DefocusNM == corners[i].DefocusNM {
			return j
		}
	}
	return i
}

// ErrEmptyMask is returned by every imaging entry point of both models
// (Aerial, AerialSeries, and the fast model's AerialBatch) when a mask
// raster has no pixels (Nx or Ny is zero).
var ErrEmptyMask = errors.New("litho: empty mask raster")

// Model computes aerial images for mask rasters under a process corner.
// Implementations: *Abbe (physical, slower) and *Gaussian (approximate,
// fast — for tests and quick sweeps). A raster with no pixels is rejected
// with ErrEmptyMask.
type Model interface {
	// Aerial returns the aerial-image intensity over the mask raster's
	// window, normalized so the clear-field intensity is 1.0. The mask
	// raster holds feature coverage in [0,1] (1 = fully covered by the
	// drawn/chrome feature). The caller owns the returned image: it may
	// keep it, or hand it to RecycleImage once it has read it.
	Aerial(mask *geom.Raster, c Corner) (*Image, error)
	// AerialSeries computes images for several corners, sharing work where
	// the model permits: dose never changes the image, so corners that
	// share a defocus alias ONE *Image in the returned slice (the same
	// pointer appears at every such index). Callers must treat the
	// returned images as immutable — mutating one mutates it for every
	// corner that shares it — and must not recycle them.
	AerialSeries(mask *geom.Raster, corners []Corner) ([]*Image, error)
	// Recipe returns the optical settings of the model.
	Recipe() Recipe
	// AppendKey appends a serialization of the model's identity and every
	// parameter that can change its images — used by content-addressed
	// caches to build window signatures. Two models whose keys are equal
	// must produce bit-identical images for equal inputs.
	AppendKey(dst []byte) []byte
}
