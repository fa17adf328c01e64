package opc

import (
	"fmt"
	"sort"

	"postopc/internal/geom"
	"postopc/internal/litho"
)

// RuleTable is a space-indexed bias lookup: the classic rule-based OPC.
// For a fragment whose outward clearance to the next feature is s, the
// applied bias is interpolated from the table.
type RuleTable struct {
	// SpacesNM are the clearance breakpoints, ascending.
	SpacesNM []geom.Coord
	// BiasNM are the corresponding edge biases (per edge, nm).
	BiasNM []geom.Coord
}

// Bias interpolates the table at clearance s (clamped to the table range).
func (rt *RuleTable) Bias(s geom.Coord) geom.Coord {
	if len(rt.SpacesNM) == 0 {
		return 0
	}
	if s <= rt.SpacesNM[0] {
		return rt.BiasNM[0]
	}
	last := len(rt.SpacesNM) - 1
	if s >= rt.SpacesNM[last] {
		return rt.BiasNM[last]
	}
	i := sort.Search(len(rt.SpacesNM), func(k int) bool { return rt.SpacesNM[k] >= s }) - 1
	s0, s1 := rt.SpacesNM[i], rt.SpacesNM[i+1]
	b0, b1 := rt.BiasNM[i], rt.BiasNM[i+1]
	return b0 + (b1-b0)*(s-s0)/(s1-s0)
}

// BuildRuleTable derives a bias table from the imaging model by simulating
// line arrays of the given width through a set of spacings and solving for
// the edge bias that prints each at drawn size. This is how real rule-based
// OPC decks were generated before model-based OPC took over.
func BuildRuleTable(m litho.Model, widthNM geom.Coord, spacesNM []geom.Coord) (*RuleTable, error) {
	r := m.Recipe()
	rt := &RuleTable{}
	for _, space := range spacesNM {
		pitch := widthNM + space
		// Find, by bisection on the mask bias, the bias at which the
		// printed CD equals the drawn width.
		lo, hi := -widthNM/3, widthNM/2
		if maxB := (space - 40) / 2; hi > maxB && maxB > 0 {
			hi = maxB // keep corrected lines from merging
		}
		var bias geom.Coord
		for it := 0; it < 12; it++ {
			bias = (lo + hi) / 2
			la := litho.LineArray{WidthNM: widthNM + 2*bias, PitchNM: pitch, Count: 7, LengthNM: widthNM * 16}
			mask := litho.RasterizeRects(la.Rects(), r.PixelNM, r.GuardNM)
			im, err := m.Aerial(mask, litho.Nominal)
			if err != nil {
				return nil, err
			}
			centers := la.CenterXs()
			mid := centers[len(centers)/2]
			res := im.MeasureCD(litho.AxisX, 0, mid-float64(pitch)/2, mid+float64(pitch)/2,
				mid, r.Threshold, r.Polarity)
			litho.RecycleImage(im)
			if !res.OK || res.CD < float64(widthNM) {
				lo = bias // line too thin: widen the mask
			} else {
				hi = bias
			}
		}
		rt.SpacesNM = append(rt.SpacesNM, space)
		rt.BiasNM = append(rt.BiasNM, bias)
	}
	return rt, nil
}

// Clearance measures the outward distance from a fragment's control point
// to the nearest other drawn feature, walking the outward normal in fixed
// steps up to maxNM. Features are supplied as a merged Region (all drawn
// polygons of the layer in the window).
func Clearance(f *Fragment, all geom.Region, maxNM geom.Coord) geom.Coord {
	const step = 10
	for d := geom.Coord(step); d <= maxNM; d += step {
		p := f.Control.Add(f.Normal.Scale(d))
		if all.Contains(p) {
			return d
		}
	}
	return maxNM
}

// RuleBased applies table-lookup OPC to drawn polygons. The context Region
// must contain all drawn geometry near the polygons (including the
// polygons themselves; a fragment's own feature is excluded by walking
// outward from the edge).
func RuleBased(polys []geom.Polygon, context geom.Region, rt *RuleTable, fragOpt FragmentOptions, maxClearNM geom.Coord) ([]geom.Polygon, error) {
	if maxClearNM <= 0 {
		maxClearNM = 1500
	}
	var out []geom.Polygon
	for _, pg := range polys {
		fp, err := Fragmentize(pg, fragOpt)
		if err != nil {
			return nil, fmt.Errorf("opc: rule-based: %w", err)
		}
		for _, f := range fp.Frags {
			f.Bias = rt.Bias(Clearance(f, context, maxClearNM))
		}
		out = append(out, fp.Corrected())
	}
	return out, nil
}
