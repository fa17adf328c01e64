package geom

import "fmt"

// Polygon is a simple polygon given by its vertices in order (either
// orientation; most constructors produce counter-clockwise). The polygon is
// implicitly closed: the last vertex connects back to the first.
type Polygon []Point

// Clone returns a deep copy of pg.
func (pg Polygon) Clone() Polygon {
	out := make(Polygon, len(pg))
	copy(out, pg)
	return out
}

// Translate returns pg shifted by d.
func (pg Polygon) Translate(d Point) Polygon {
	out := make(Polygon, len(pg))
	for i, p := range pg {
		out[i] = p.Add(d)
	}
	return out
}

// BBox returns the bounding box of pg.
func (pg Polygon) BBox() Rect { return BBoxOf(pg) }

// SignedArea2 returns twice the signed area of pg (positive when the
// vertices run counter-clockwise). Using twice the area keeps everything in
// exact integer arithmetic.
func (pg Polygon) SignedArea2() int64 {
	var s int64
	n := len(pg)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		s += int64(pg[i].X)*int64(pg[j].Y) - int64(pg[j].X)*int64(pg[i].Y)
	}
	return s
}

// Area returns the absolute area of pg in nm².
func (pg Polygon) Area() int64 {
	a := pg.SignedArea2()
	if a < 0 {
		a = -a
	}
	return a / 2
}

// IsCCW reports whether the vertices run counter-clockwise.
func (pg Polygon) IsCCW() bool { return pg.SignedArea2() > 0 }

// Reverse returns pg with its orientation flipped.
func (pg Polygon) Reverse() Polygon {
	out := make(Polygon, len(pg))
	for i, p := range pg {
		out[len(pg)-1-i] = p
	}
	return out
}

// Contains reports whether p is strictly inside pg (even-odd rule, via ray
// casting to +X). Points exactly on an edge may be reported either way;
// layout code never depends on edge cases because physical quantities are
// areas, not point membership.
func (pg Polygon) Contains(p Point) bool {
	inside := false
	n := len(pg)
	for i := 0; i < n; i++ {
		a, b := pg[i], pg[(i+1)%n]
		if (a.Y > p.Y) != (b.Y > p.Y) {
			// x coordinate of the edge at height p.Y, exact in rationals:
			// a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y) compared to p.X.
			num := int64(p.Y-a.Y) * int64(b.X-a.X)
			den := int64(b.Y - a.Y)
			// Compare p.X < a.X + num/den without division. den != 0 here.
			lhs := int64(p.X-a.X) * den
			if den > 0 {
				if lhs < num {
					inside = !inside
				}
			} else {
				if lhs > num {
					inside = !inside
				}
			}
		}
	}
	return inside
}

// IsRectilinear reports whether every edge of pg is axis-parallel.
func (pg Polygon) IsRectilinear() bool {
	n := len(pg)
	if n < 4 {
		return false
	}
	for i := 0; i < n; i++ {
		a, b := pg[i], pg[(i+1)%n]
		if a.X != b.X && a.Y != b.Y {
			return false
		}
	}
	return true
}

// AsRect returns the rectangle equal to pg and true when pg is exactly an
// axis-aligned rectangle (4 distinct corners in either orientation).
func (pg Polygon) AsRect() (Rect, bool) {
	if len(pg) != 4 || !pg.IsRectilinear() {
		return Rect{}, false
	}
	b := pg.BBox()
	if pg.Area() != b.Area() {
		return Rect{}, false
	}
	return b, true
}

// Perimeter returns the total edge length of pg in nm.
func (pg Polygon) Perimeter() int64 {
	var s int64
	n := len(pg)
	for i := 0; i < n; i++ {
		s += int64(pg[i].Manhattan(pg[(i+1)%n]))
	}
	return s
}

// String implements fmt.Stringer.
func (pg Polygon) String() string {
	return fmt.Sprintf("poly%v", []Point(pg))
}

// Simplify removes consecutive duplicate vertices and collinear vertices on
// axis-parallel runs. It returns nil if the polygon degenerates.
func (pg Polygon) Simplify() Polygon { return dedupVertices(pg) }

// ClipToRect clips pg against the rectangle w using Sutherland–Hodgman.
// The result may be empty. Collinear duplicate vertices are removed.
// Clipping a rectilinear polygon to a rect yields a rectilinear polygon.
func (pg Polygon) ClipToRect(w Rect) Polygon {
	if len(pg) == 0 || w.Empty() {
		return nil
	}
	out := pg
	// Clip successively against the four half-planes of w.
	out = clipHalfPlane(out, func(p Point) bool { return p.X >= w.X0 }, func(a, b Point) Point {
		return intersectVert(a, b, w.X0)
	})
	out = clipHalfPlane(out, func(p Point) bool { return p.X <= w.X1 }, func(a, b Point) Point {
		return intersectVert(a, b, w.X1)
	})
	out = clipHalfPlane(out, func(p Point) bool { return p.Y >= w.Y0 }, func(a, b Point) Point {
		return intersectHoriz(a, b, w.Y0)
	})
	out = clipHalfPlane(out, func(p Point) bool { return p.Y <= w.Y1 }, func(a, b Point) Point {
		return intersectHoriz(a, b, w.Y1)
	})
	return dedupVertices(out)
}

func clipHalfPlane(pg Polygon, inside func(Point) bool, cross func(a, b Point) Point) Polygon {
	if len(pg) == 0 {
		return nil
	}
	var out Polygon
	n := len(pg)
	for i := 0; i < n; i++ {
		cur, next := pg[i], pg[(i+1)%n]
		curIn, nextIn := inside(cur), inside(next)
		if curIn {
			out = append(out, cur)
			if !nextIn {
				out = append(out, cross(cur, next))
			}
		} else if nextIn {
			out = append(out, cross(cur, next))
		}
	}
	return out
}

// intersectVert returns the intersection of segment a-b with the vertical
// line x = x. Coordinates are rounded to the nearest nanometre.
func intersectVert(a, b Point, x Coord) Point {
	if a.X == b.X {
		return Point{x, a.Y}
	}
	y := a.Y + roundDiv(int64(b.Y-a.Y)*int64(x-a.X), int64(b.X-a.X))
	return Point{x, y}
}

// intersectHoriz returns the intersection of segment a-b with the horizontal
// line y = y.
func intersectHoriz(a, b Point, y Coord) Point {
	if a.Y == b.Y {
		return Point{a.X, y}
	}
	x := a.X + roundDiv(int64(b.X-a.X)*int64(y-a.Y), int64(b.Y-a.Y))
	return Point{x, y}
}

// roundDiv divides num by den rounding half away from zero.
func roundDiv(num, den int64) int64 {
	if den < 0 {
		num, den = -num, -den
	}
	if num >= 0 {
		return (num + den/2) / den
	}
	return -((-num + den/2) / den)
}

// dedupVertices removes consecutive duplicate vertices and vertices that are
// collinear midpoints of their neighbours on axis-parallel runs.
func dedupVertices(pg Polygon) Polygon {
	if len(pg) < 3 {
		return nil
	}
	out := make(Polygon, 0, len(pg))
	for _, p := range pg {
		if len(out) > 0 && out[len(out)-1] == p {
			continue
		}
		out = append(out, p)
	}
	if len(out) > 1 && out[0] == out[len(out)-1] {
		out = out[:len(out)-1]
	}
	if len(out) < 3 {
		return nil
	}
	// Remove collinear points on axis-parallel runs.
	n := len(out)
	res := make(Polygon, 0, n)
	for i := 0; i < n; i++ {
		prev := out[(i-1+n)%n]
		cur := out[i]
		next := out[(i+1)%n]
		if (prev.X == cur.X && cur.X == next.X) || (prev.Y == cur.Y && cur.Y == next.Y) {
			continue
		}
		res = append(res, cur)
	}
	if len(res) < 3 {
		return nil
	}
	return res
}
