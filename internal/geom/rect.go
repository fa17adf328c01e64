package geom

import "fmt"

// Rect is an axis-aligned rectangle. It is half-open in spirit but since all
// quantities are physical nanometres, edges are treated as closed for
// containment and area is (X1-X0)*(Y1-Y0). A Rect with X0 >= X1 or Y0 >= Y1
// is empty.
type Rect struct {
	X0, Y0, X1, Y1 Coord
}

// R constructs a normalized Rect from any two opposite corners.
func R(x0, y0, x1, y1 Coord) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{x0, y0, x1, y1}
}

// Empty reports whether r has zero (or negative) extent.
func (r Rect) Empty() bool { return r.X0 >= r.X1 || r.Y0 >= r.Y1 }

// W returns the width of r.
//
//postopc:allocfree
func (r Rect) W() Coord { return r.X1 - r.X0 }

// H returns the height of r.
//
//postopc:allocfree
func (r Rect) H() Coord { return r.Y1 - r.Y0 }

// Area returns the area of r in nm². Empty rectangles have zero area.
func (r Rect) Area() int64 {
	if r.Empty() {
		return 0
	}
	return int64(r.W()) * int64(r.H())
}

// Center returns the center of r (rounded toward negative infinity for odd
// extents).
func (r Rect) Center() Point { return Point{(r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2} }

// Contains reports whether p lies inside r (closed edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X0 && p.X <= r.X1 && p.Y >= r.Y0 && p.Y <= r.Y1
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return s.X0 >= r.X0 && s.X1 <= r.X1 && s.Y0 >= r.Y0 && s.Y1 <= r.Y1
}

// Intersect returns the intersection of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{max(r.X0, s.X0), max(r.Y0, s.Y0), min(r.X1, s.X1), min(r.Y1, s.Y1)}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Intersects reports whether r and s share interior area.
func (r Rect) Intersects(s Rect) bool {
	return !r.Empty() && !s.Empty() &&
		r.X0 < s.X1 && s.X0 < r.X1 && r.Y0 < s.Y1 && s.Y0 < r.Y1
}

// Union returns the bounding box of r and s. Empty inputs are ignored.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{min(r.X0, s.X0), min(r.Y0, s.Y0), max(r.X1, s.X1), max(r.Y1, s.Y1)}
}

// Expand grows r by d on every side (shrinks for negative d). The result is
// normalized to the empty Rect if it collapses.
func (r Rect) Expand(d Coord) Rect {
	out := Rect{r.X0 - d, r.Y0 - d, r.X1 + d, r.Y1 + d}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Translate returns r shifted by p.
func (r Rect) Translate(p Point) Rect {
	return Rect{r.X0 + p.X, r.Y0 + p.Y, r.X1 + p.X, r.Y1 + p.Y}
}

// Polygon returns the counter-clockwise rectangle outline as a Polygon.
func (r Rect) Polygon() Polygon {
	return Polygon{
		{r.X0, r.Y0}, {r.X1, r.Y0}, {r.X1, r.Y1}, {r.X0, r.Y1},
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d %d,%d]", r.X0, r.Y0, r.X1, r.Y1)
}

// BBoxOf returns the bounding box of a set of points. It returns the empty
// Rect for an empty set.
func BBoxOf(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	b := Rect{pts[0].X, pts[0].Y, pts[0].X, pts[0].Y}
	for _, p := range pts[1:] {
		b.X0 = min(b.X0, p.X)
		b.Y0 = min(b.Y0, p.Y)
		b.X1 = max(b.X1, p.X)
		b.Y1 = max(b.Y1, p.Y)
	}
	return b
}
