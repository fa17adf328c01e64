package opc

import (
	"fmt"
	"math"
	"sync"

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
	// convergedNM is the |EPE| under which a fragment counts as converged:
	// the loop stops early once every fragment is under it.
	convergedNM = 1.0
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
	// NoEdge is the number of fragments whose final-pass search found no
	// printed edge within ±searchNM; their FinalEPE is that saturated
	// bound, not a measured distance.
	NoEdge int
	// Within is the number of fragments whose final-pass |EPE| is under
	// the 1 nm the early exit asks of every fragment.
	Within int
	// Clamped is the number of fragments whose final bias sits at the
	// ±maxBiasNM clamp.
	Clamped int
	// PulledBack is the number of fragments the mask-rule check pulled back
	// in the last iteration.
	PulledBack int
	// Moving is the number of fragments whose bias the last iteration's EPE
	// feedback changed: a non-zero move that the bias clamp did not cancel.
	Moving int
	// Iterations actually executed.
	Iterations int
	// Converged reports whether the loop stopped early because every
	// fragment's EPE was under 1 nm.
	Converged bool
	// Sims is the number of aerial simulations spent.
	Sims int
}

// ModelBased iteratively corrects the drawn polygons so they print at size
// under the given model at the nominal process condition. Context polygons
// (neighbouring geometry that is not corrected here, e.g. from adjacent
// windows) are rasterized into every simulation but left unmodified. Each
// simulation's raster and image go back to litho's pools once read, so an
// iteration allocates no raster or image, and a model that can compute
// part of an image computes only the pixels the EPE pass reads (see
// simulate).
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
	masks := make([]geom.Polygon, 0, len(drawn)+len(context))
	for iter := 0; iter < opt.Iterations; iter++ {
		masks = masks[:0]
		for _, fp := range res.Fragmented {
			masks = append(masks, fp.Corrected())
		}
		masks = append(masks, context...)
		im, err := simulate(m, masks, litho.Nominal, res.Fragmented)
		if err != nil {
			return nil, err
		}
		res.Sims++
		res.Iterations = iter + 1
		res.Moving = 0
		maxAbs := 0.0
		for _, fp := range res.Fragmented {
			for _, f := range fp.Frags {
				epe, _ := MeasureEPE(im, f, r.Threshold, r.Polarity, searchNM)
				move := geom.Coord(math.Round(-gain * epe))
				if move > maxMoveNM {
					move = maxMoveNM
				} else if move < -maxMoveNM {
					move = -maxMoveNM
				}
				before := f.Bias
				f.Bias += move
				if f.Bias > maxBiasNM {
					f.Bias = maxBiasNM
				} else if f.Bias < -maxBiasNM {
					f.Bias = -maxBiasNM
				}
				if f.Bias != before {
					res.Moving++
				}
				if a := math.Abs(epe); a > maxAbs {
					maxAbs = a
				}
			}
		}
		litho.RecycleImage(im)
		res.PulledBack = enforceMinSpace(res.Fragmented, context)
		if maxAbs < convergedNM {
			res.Converged = true
			break
		}
	}
	// Final verification pass at nominal.
	masks = masks[:0]
	for _, fp := range res.Fragmented {
		pg := fp.Corrected()
		masks = append(masks, pg)
		res.Polygons = append(res.Polygons, pg)
	}
	im, err := simulate(m, append(masks, context...), litho.Nominal, res.Fragmented)
	if err != nil {
		return nil, err
	}
	res.Sims++
	for _, fp := range res.Fragmented {
		for _, f := range fp.Frags {
			epe, found := MeasureEPE(im, f, r.Threshold, r.Polarity, searchNM)
			res.FinalEPE = append(res.FinalEPE, epe)
			if !found {
				res.NoEdge++
			}
			if math.Abs(epe) < convergedNM {
				res.Within++
			}
			if f.Bias == maxBiasNM || f.Bias == -maxBiasNM {
				res.Clamped++
			}
		}
	}
	litho.RecycleImage(im)
	return res, nil
}

// footprintModel is a litho.Model that can image only the pixels a
// footprint selects (litho.Gaussian). A model without the method, or a
// decorator that does not forward it, images every pixel.
type footprintModel interface {
	AerialWithin(mask *geom.Raster, c litho.Corner, fp *litho.Footprint) (*litho.Image, error)
}

// simulate rasterizes polys over their bounding box plus the recipe's
// guard band and images them under m at corner c, for an EPE pass over
// the fragments of frags. When m is a footprintModel it computes only the
// pixels MeasureEPE can read along those fragments' normals, within
// ±searchNM of their control points; the image must be read nowhere else.
// The raster goes back to litho's pool at once; the caller hands the image
// to litho.RecycleImage once it has read it.
func simulate(m litho.Model, polys []geom.Polygon, c litho.Corner, frags []*FragmentedPolygon) (*litho.Image, error) {
	r := m.Recipe()
	raster := litho.RasterizePolygons(polys, r.PixelNM, r.GuardNM)
	defer litho.RecycleRaster(raster)
	fm, ok := m.(footprintModel)
	if !ok {
		return m.Aerial(raster, c)
	}
	fp := borrowFootprint()
	defer releaseFootprint(fp)
	coverProbes(fp, raster, frags)
	return fm.AerialWithin(raster, c, fp)
}

// coverProbes lays fp out on mask's grid and adds every pixel that
// MeasureEPE can read along the normals of frags' fragments, within
// ±searchNM of their control points.
func coverProbes(fp *litho.Footprint, mask *geom.Raster, frags []*FragmentedPolygon) {
	fp.Reset(mask)
	s := float64(searchNM)
	for _, fpg := range frags {
		for _, f := range fpg.Frags {
			// MeasureEPE samples probeAt(f, d) for |d| ≤ s only, and each
			// coordinate of probeAt is monotone in d.
			x0, y0 := probeAt(f, -s)
			x1, y1 := probeAt(f, s)
			fp.CoverSamples(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
		}
	}
}

// footprintFree is the free list of the footprints simulate builds. Like
// litho's image free list it allocates only when it is empty and keeps
// what it holds across garbage collections, so it holds about one
// footprint per goroutine running OPC.
var footprintFree struct {
	mu   sync.Mutex
	list []*litho.Footprint
}

func borrowFootprint() *litho.Footprint {
	footprintFree.mu.Lock()
	defer footprintFree.mu.Unlock()
	n := len(footprintFree.list)
	if n == 0 {
		return new(litho.Footprint)
	}
	fp := footprintFree.list[n-1]
	footprintFree.list[n-1] = nil
	footprintFree.list = footprintFree.list[:n-1]
	return fp
}

func releaseFootprint(fp *litho.Footprint) {
	footprintFree.mu.Lock()
	footprintFree.list = append(footprintFree.list, fp)
	footprintFree.mu.Unlock()
}

// enforceMinSpace is the mask-rule check: any fragment whose corrected
// edge would come closer than minSpaceNM to neighbouring corrected
// geometry is pulled back. Neighbours include the other corrected polygons
// and the uncorrected context. It returns the number of fragments pulled
// back.
func enforceMinSpace(frags []*FragmentedPolygon, context []geom.Polygon) int {
	// Region of everything at current biases. Clearance only asks whether
	// a point lies in it, which the polygons' own decompositions answer
	// without normalizing their union.
	var all geom.Region
	for _, fp := range frags {
		all = append(all, geom.RegionFromPolygon(fp.Corrected())...)
	}
	for _, pg := range context {
		all = append(all, geom.RegionFromPolygon(pg)...)
	}
	pulled := 0
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
				pulled++
				f.Bias -= minSpaceNM - cl
				if f.Bias < 0 {
					f.Bias = 0
				}
			}
		}
	}
	return pulled
}

// MeasureEPE returns the signed edge placement error of a fragment: the
// distance from the drawn edge (the fragment's control point) to the
// printed edge along the outward normal. Positive = printed edge outside
// drawn (feature too wide). found reports whether a printed edge lay
// within ±search; when none did, the error saturates at ±search (feature
// merged or lost) and found is false.
//
// The printed state is sampled on the grid d = −search + 2k, k = 0 …
// search, and an interval whose ends differ holds a crossing, located by
// 20 bisections. Of all crossings the one nearest the drawn edge (d = 0)
// is kept, the lower d of two equally near: scanning from one end would
// mis-lock onto the far edge of narrow features. The scan runs outward
// from d = 0 on both sides and bisects only the nearest crossing on each,
// because every point of an interval, and of those beyond it on its side,
// is at least as far from d = 0 as the interval's inner end. A side stops
// once that bound cannot beat the best crossing found so far, so the
// result is the one a full scan of every interval gives.
func MeasureEPE(im *litho.Image, f *Fragment, threshold float64, pol litho.Polarity, search geom.Coord) (epe float64, found bool) {
	printed := func(d float64) bool {
		v := im.Sample(probeAt(f, d))
		if pol == litho.ClearField {
			return v < threshold
		}
		return v > threshold
	}
	s := float64(search)
	const step = 2.0
	// The intervals are [grid(k−1), grid(k)], k = 1 … n. A search in
	// integer nm puts every grid point on an integer, so grid(k) has the
	// bits of −search stepped k times.
	grid := func(k int) float64 { return -s + step*float64(k) }
	n := int(max(search, 0))
	best, bestK := 0.0, 0 // bestK 0: no crossing yet
	// beats reports whether a crossing at distance dist from the drawn edge
	// in interval k would replace the best one.
	beats := func(dist float64, k int) bool {
		return bestK == 0 || dist < math.Abs(best) || dist == math.Abs(best) && k < bestK
	}
	bisect := func(k int, loIn bool) {
		lo, hi := grid(k-1), grid(k)
		for i := 0; i < 20; i++ {
			mid := (lo + hi) / 2
			if printed(mid) == loIn {
				lo = mid
			} else {
				hi = mid
			}
		}
		if c := (lo + hi) / 2; beats(math.Abs(c), k) {
			best, bestK = c, k
		}
	}
	// grid(m) is the last grid point at or below 0 (0 for an even search,
	// −1 for an odd one). The negative side is intervals m, m−1, …, 1 and
	// the positive side m+1, …, n, whose first interval straddles 0 when
	// the search is odd. downIn and upIn are the states at the inner end of
	// each side's next interval.
	m := n / 2
	kn, kp := m, m+1
	downIn := printed(grid(m))
	upIn := downIn
	for {
		neg := kn >= 1 && beats(-grid(kn), kn)
		pos := kp <= n && beats(max(grid(kp-1), 0), kp)
		if !neg && !pos {
			break
		}
		if neg {
			in := printed(grid(kn - 1))
			if in != downIn {
				bisect(kn, in)
			}
			downIn = in
			kn--
		}
		if pos {
			in := printed(grid(kp))
			if in != upIn {
				bisect(kp, upIn)
			}
			upIn = in
			kp++
		}
	}
	if bestK > 0 {
		return best, true
	}
	if printed(0) {
		return s, false // printed everywhere in range: feature merged/too wide
	}
	return -s, false // never printed: feature lost at this edge
}

// probeAt returns the layout position d nm from f's control point along
// its outward normal, where MeasureEPE samples the image.
func probeAt(f *Fragment, d float64) (x, y float64) {
	return float64(f.Control.X) + float64(f.Normal.X)*d, float64(f.Control.Y) + float64(f.Normal.Y)*d
}
