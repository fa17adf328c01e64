// Package opc implements optical proximity correction: polygon edge
// fragmentation, rule-based (table-lookup) correction, iterative model-based
// correction driven by a litho.Model, and ORC verification that reports the
// residual edge-placement errors the downstream timing flow consumes.
package opc

import (
	"fmt"

	"postopc/internal/geom"
)

// Fragment is one movable piece of a polygon edge. The fragment's geometry
// refers to the ORIGINAL drawn edge; Bias is its current displacement along
// the outward normal (positive = outward, widening the feature).
type Fragment struct {
	// A, B are the fragment endpoints on the drawn polygon, in edge order.
	A, B geom.Point
	// Normal is the outward unit normal (one of ±x, ±y).
	Normal geom.Point
	// Bias is the applied displacement along Normal in nm.
	Bias geom.Coord
	// Control is the EPE evaluation point (fragment midpoint on the drawn
	// edge).
	Control geom.Point
}

// FragmentedPolygon is a polygon plus its movable fragments, in edge order.
type FragmentedPolygon struct {
	// Drawn is the original polygon (forced counter-clockwise).
	Drawn geom.Polygon
	// Frags holds the fragments of every edge, concatenated in traversal
	// order.
	Frags []*Fragment
	// edgeStart[i] is the index in Frags of edge i's first fragment.
	edgeStart []int
}

// Fragmentation settings.
type FragmentOptions struct {
	// LengthNM is the target interior fragment length.
	LengthNM geom.Coord
	// CornerNM is the length of the short fragments kept next to corners
	// and line ends for finer control there.
	CornerNM geom.Coord
}

// DefaultFragmentOptions are production-flavored defaults.
func DefaultFragmentOptions() FragmentOptions {
	return FragmentOptions{LengthNM: 140, CornerNM: 60}
}

// Fragmentize splits a rectilinear polygon into movable edge fragments.
func Fragmentize(pg geom.Polygon, opt FragmentOptions) (*FragmentedPolygon, error) {
	if !pg.IsRectilinear() {
		return nil, fmt.Errorf("opc: polygon is not rectilinear")
	}
	if !pg.IsCCW() {
		pg = pg.Reverse()
	}
	if opt.LengthNM <= 0 {
		opt.LengthNM = 140
	}
	if opt.CornerNM <= 0 || opt.CornerNM > opt.LengthNM {
		opt.CornerNM = opt.LengthNM / 2
	}
	fp := &FragmentedPolygon{Drawn: pg}
	n := len(pg)
	for i := 0; i < n; i++ {
		a, b := pg[i], pg[(i+1)%n]
		fp.edgeStart = append(fp.edgeStart, len(fp.Frags))
		normal := outwardNormal(a, b)
		for _, seg := range splitEdge(a, b, opt) {
			mid := geom.Pt((seg[0].X+seg[1].X)/2, (seg[0].Y+seg[1].Y)/2)
			fp.Frags = append(fp.Frags, &Fragment{
				A: seg[0], B: seg[1], Normal: normal, Control: mid,
			})
		}
	}
	return fp, nil
}

// outwardNormal returns the outward unit normal of a CCW polygon edge a→b.
func outwardNormal(a, b geom.Point) geom.Point {
	dx, dy := sign(b.X-a.X), sign(b.Y-a.Y)
	// Interior is to the left of the direction; outward is to the right:
	// rotate the direction -90°: (dx,dy) -> (dy,-dx).
	return geom.Pt(dy, -dx)
}

func sign(v geom.Coord) geom.Coord {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// splitEdge cuts edge a→b into corner/interior fragments.
func splitEdge(a, b geom.Point, opt FragmentOptions) [][2]geom.Point {
	length := a.Manhattan(b)
	if length == 0 {
		return nil
	}
	// Unit direction.
	dx, dy := sign(b.X-a.X), sign(b.Y-a.Y)
	at := func(d geom.Coord) geom.Point { return geom.Pt(a.X+dx*d, a.Y+dy*d) }
	if length <= 2*opt.CornerNM {
		return [][2]geom.Point{{a, b}}
	}
	var cuts []geom.Coord
	cuts = append(cuts, 0, opt.CornerNM)
	interior := length - 2*opt.CornerNM
	nInt := int((interior + opt.LengthNM - 1) / opt.LengthNM)
	for k := 1; k < nInt; k++ {
		cuts = append(cuts, opt.CornerNM+interior*geom.Coord(k)/geom.Coord(nInt))
	}
	cuts = append(cuts, length-opt.CornerNM, length)
	var out [][2]geom.Point
	for i := 0; i+1 < len(cuts); i++ {
		if cuts[i+1] > cuts[i] {
			out = append(out, [2]geom.Point{at(cuts[i]), at(cuts[i+1])})
		}
	}
	return out
}

// Corrected reconstructs the polygon with every fragment displaced by its
// bias, inserting jogs between fragments with different biases. The result
// is rectilinear (and may be self-touching for extreme biases; biases are
// clamped by the correction loops to prevent that).
func (fp *FragmentedPolygon) Corrected() geom.Polygon {
	if len(fp.Frags) == 0 {
		return fp.Drawn.Clone()
	}
	n := len(fp.Frags)
	out := make(geom.Polygon, 0, 2*n)
	for i, f := range fp.Frags {
		next := fp.Frags[(i+1)%n]
		curB := f.B.Add(f.Normal.Scale(f.Bias))           // end of the displaced fragment
		nextA := next.A.Add(next.Normal.Scale(next.Bias)) // start of the displaced next one
		curHoriz := f.Normal.Y != 0                       // horizontal edge has vertical normal
		nextHoriz := next.Normal.Y != 0
		if curHoriz != nextHoriz {
			// Perpendicular: join at the intersection of the two offset
			// lines.
			var corner geom.Point
			if curHoriz {
				corner = geom.Pt(nextA.X, curB.Y)
			} else {
				corner = geom.Pt(curB.X, nextA.Y)
			}
			out = append(out, corner)
		} else {
			// Parallel fragments: emit both endpoints; the connecting jog
			// is the perpendicular segment between them (may be zero
			// length when biases match — deduped below).
			out = append(out, curB, nextA)
		}
	}
	if simplified := out.Simplify(); simplified != nil {
		return simplified
	}
	return dedupClosed(out)
}

func dedupClosed(pg geom.Polygon) geom.Polygon {
	var out geom.Polygon
	for _, p := range pg {
		if len(out) > 0 && out[len(out)-1] == p {
			continue
		}
		out = append(out, p)
	}
	for len(out) > 1 && out[0] == out[len(out)-1] {
		out = out[:len(out)-1]
	}
	return out
}
