package opc

import (
	"fmt"
	"math"

	"postopc/internal/geom"
	"postopc/internal/litho"
)

// Model-based correction constants.
const (
	// defaultIterations is the number of simulate-measure-move rounds
	// when Options.Iterations is not positive.
	defaultIterations = 8
	// gain is the EPE-to-move feedback factor.
	gain = 0.6
	// maxMoveNM clamps the per-iteration fragment move.
	maxMoveNM geom.Coord = 12
	// maxBiasNM clamps the total fragment bias (a crude mask-rule check
	// preventing merged or vanished mask features).
	maxBiasNM geom.Coord = 45
	// minSpaceNM is the mask-rule (MRC) minimum space: after every
	// iteration each fragment's bias is pulled back until the corrected
	// mask keeps at least this clearance to neighbouring corrected
	// geometry.
	minSpaceNM geom.Coord = 140
	// searchNM is the half-range of the printed-edge search along each
	// fragment normal, for correction and verification alike.
	searchNM geom.Coord = 80
)

// Options configure model-based OPC.
type Options struct {
	// Fragment controls edge fragmentation.
	Fragment FragmentOptions
	// Iterations is the number of simulate-measure-move rounds.
	Iterations int
}

// DefaultOptions returns production-flavored settings.
func DefaultOptions() Options {
	return Options{Fragment: DefaultFragmentOptions(), Iterations: defaultIterations}
}

// Result is the outcome of a model-based OPC run on one window.
type Result struct {
	// Polygons is the corrected mask geometry.
	Polygons []geom.Polygon
	// Fragmented gives access to the per-fragment biases.
	Fragmented []*FragmentedPolygon
	// FinalEPE holds the residual EPE (nm, signed, outward-positive) of
	// every fragment after the last iteration.
	FinalEPE []float64
	// Iterations actually executed.
	Iterations int
	// Sims is the number of aerial simulations spent.
	Sims int
}

// ModelBased iteratively corrects the drawn polygons so they print at size
// under the given model at the nominal process condition. Context polygons
// (neighbouring geometry that is not corrected here, e.g. from adjacent
// windows) are rasterized into every simulation but left unmodified.
func ModelBased(m litho.Model, drawn, context []geom.Polygon, opt Options) (*Result, error) {
	if opt.Iterations <= 0 {
		opt.Iterations = defaultIterations
	}
	res := &Result{}
	for _, pg := range drawn {
		fp, err := Fragmentize(pg, opt.Fragment)
		if err != nil {
			return nil, fmt.Errorf("opc: model-based: %w", err)
		}
		res.Fragmented = append(res.Fragmented, fp)
	}
	r := m.Recipe()
	for iter := 0; iter < opt.Iterations; iter++ {
		masks := make([]geom.Polygon, 0, len(drawn)+len(context))
		for _, fp := range res.Fragmented {
			masks = append(masks, fp.Corrected())
		}
		masks = append(masks, context...)
		raster := litho.RasterizePolygons(masks, r.PixelNM, r.GuardNM)
		im, err := m.Aerial(raster, litho.Nominal)
		if err != nil {
			return nil, err
		}
		res.Sims++
		res.Iterations = iter + 1
		maxAbs := 0.0
		for _, fp := range res.Fragmented {
			for _, f := range fp.Frags {
				epe := MeasureEPE(im, f, r.Threshold, r.Polarity, searchNM)
				move := geom.Coord(math.Round(-gain * epe))
				if move > maxMoveNM {
					move = maxMoveNM
				} else if move < -maxMoveNM {
					move = -maxMoveNM
				}
				f.Bias += move
				if f.Bias > maxBiasNM {
					f.Bias = maxBiasNM
				} else if f.Bias < -maxBiasNM {
					f.Bias = -maxBiasNM
				}
				if a := math.Abs(epe); a > maxAbs {
					maxAbs = a
				}
			}
		}
		enforceMinSpace(res.Fragmented, context)
		if maxAbs < 1.0 { // converged to sub-nm
			break
		}
	}
	// Final verification pass at nominal.
	masks := make([]geom.Polygon, 0, len(drawn))
	for _, fp := range res.Fragmented {
		pg := fp.Corrected()
		masks = append(masks, pg)
		res.Polygons = append(res.Polygons, pg)
	}
	raster := litho.RasterizePolygons(append(masks, context...), r.PixelNM, r.GuardNM)
	im, err := m.Aerial(raster, litho.Nominal)
	if err != nil {
		return nil, err
	}
	res.Sims++
	for _, fp := range res.Fragmented {
		for _, f := range fp.Frags {
			res.FinalEPE = append(res.FinalEPE, MeasureEPE(im, f, r.Threshold, r.Polarity, searchNM))
		}
	}
	return res, nil
}

// enforceMinSpace is the mask-rule check: any fragment whose corrected
// edge would come closer than minSpaceNM to neighbouring corrected
// geometry is pulled back. Neighbours include the other corrected polygons
// and the uncorrected context.
func enforceMinSpace(frags []*FragmentedPolygon, context []geom.Polygon) {
	// Region of everything at current biases.
	var all geom.Region
	for _, fp := range frags {
		all = append(all, geom.RegionFromPolygon(fp.Corrected())...)
	}
	for _, pg := range context {
		all = append(all, geom.RegionFromPolygon(pg)...)
	}
	all = all.Normalize()
	for _, fp := range frags {
		for _, f := range fp.Frags {
			if f.Bias <= 0 {
				continue // inward-moved edges cannot violate space
			}
			// Probe from the corrected edge outward.
			probe := &Fragment{
				Control: f.Control.Add(f.Normal.Scale(f.Bias)),
				Normal:  f.Normal,
			}
			cl := Clearance(probe, all, minSpaceNM+20)
			if cl < minSpaceNM {
				f.Bias -= minSpaceNM - cl
				if f.Bias < 0 {
					f.Bias = 0
				}
			}
		}
	}
}

// MeasureEPE returns the signed edge placement error of a fragment: the
// distance from the drawn edge (the fragment's control point) to the
// printed edge along the outward normal. Positive = printed edge outside
// drawn (feature too wide). If no printed edge is found within ±search,
// the error saturates at ±search (feature lost or merged).
func MeasureEPE(im *litho.Image, f *Fragment, threshold float64, pol litho.Polarity, search geom.Coord) float64 {
	nx, ny := float64(f.Normal.X), float64(f.Normal.Y)
	cx, cy := float64(f.Control.X), float64(f.Control.Y)
	printed := func(d float64) bool {
		v := im.Sample(cx+nx*d, cy+ny*d)
		if pol == litho.ClearField {
			return v < threshold
		}
		return v > threshold
	}
	s := float64(search)
	// Scan the whole ±search range and keep the printed/unprinted
	// transition closest to the drawn edge (d = 0). Starting from one end
	// would mis-lock onto the far edge of narrow features.
	const step = 2.0
	best := math.Inf(1)
	found := false
	prev := -s
	prevIn := printed(prev)
	for d := -s + step; d <= s+step/2; d += step {
		if d > s {
			d = s
		}
		in := printed(d)
		if prevIn != in {
			lo, hi := prev, d
			for k := 0; k < 20; k++ {
				mid := (lo + hi) / 2
				if printed(mid) == prevIn {
					lo = mid
				} else {
					hi = mid
				}
			}
			cross := (lo + hi) / 2
			if !found || math.Abs(cross) < math.Abs(best) {
				best = cross
				found = true
			}
		}
		prev, prevIn = d, in
		if d == s {
			break
		}
	}
	if found {
		return best
	}
	if printed(0) {
		return s // printed everywhere in range: feature merged/too wide
	}
	return -s // never printed: feature lost at this edge
}
