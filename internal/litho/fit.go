package litho

import (
	"fmt"
	"math"
	"slices"

	"postopc/internal/geom"
)

// DualFit is the result of calibrating the fast dual-Gaussian model against
// reference (Abbe or measured) CD-through-pitch data.
type DualFit struct {
	// Sigma2NM and Weight parameterize the secondary kernel.
	Sigma2NM, Weight float64
	// Threshold is the resist threshold calibrated for the fitted model.
	Threshold float64
	// RMS is the residual CD error over the fitting targets (nm).
	RMS float64
}

// FitDualGaussian grid-searches the secondary kernel of the fast model so
// that its printed CD through pitch matches the reference targets. The
// threshold is recalibrated (dose-to-size on width/refPitch) for every
// candidate, exactly as a fab would anchor a fast OPC model.
func FitDualGaussian(r Recipe, width, refPitch geom.Coord, targets map[geom.Coord]float64) (DualFit, error) {
	// Squared errors are summed in pitch order, so the residual does not
	// depend on map iteration order.
	pitches := make([]geom.Coord, 0, len(targets))
	for pitch := range targets {
		pitches = append(pitches, pitch)
	}
	slices.Sort(pitches)
	best := DualFit{RMS: math.Inf(1)}
	for _, sigma2 := range []float64{120, 160, 200, 240, 280, 320} {
		for w := -0.15; w <= 0.35+1e-9; w += 0.05 {
			m, err := NewGaussianDual(r, sigma2, w)
			if err != nil {
				return best, err
			}
			th, err := CalibrateThreshold(m, width, refPitch)
			if err != nil {
				continue // candidate cannot even print the anchor
			}
			var se float64
			n := 0
			ok := true
			for _, pitch := range pitches {
				want := targets[pitch]
				cd, err := measureArrayCD(m, width, pitch, th)
				if err != nil {
					ok = false
					break
				}
				se += (cd - want) * (cd - want)
				n++
			}
			if !ok || n == 0 {
				continue
			}
			rms := math.Sqrt(se / float64(n))
			if rms < best.RMS {
				best = DualFit{Sigma2NM: sigma2, Weight: w, Threshold: th, RMS: rms}
			}
		}
	}
	if math.IsInf(best.RMS, 1) {
		return best, fmt.Errorf("litho: dual-Gaussian fit found no printable candidate")
	}
	return best, nil
}

// measureArrayCD images a 7-line array and measures the center line's CD at
// the given threshold.
func measureArrayCD(m Model, width, pitch geom.Coord, threshold float64) (float64, error) {
	r := m.Recipe()
	la := LineArray{WidthNM: width, PitchNM: pitch, Count: 7, LengthNM: width * 16}
	mask := RasterizeRects(la.Rects(), r.PixelNM, r.GuardNM)
	im, err := m.Aerial(mask, Nominal)
	if err != nil {
		return 0, err
	}
	centers := la.CenterXs()
	mid := centers[len(centers)/2]
	res := im.MeasureCD(AxisX, 0, mid-float64(pitch)/2, mid+float64(pitch)/2, mid, threshold, r.Polarity)
	if !res.OK {
		return 0, fmt.Errorf("litho: line w=%d p=%d did not print", width, pitch)
	}
	return res.CD, nil
}
