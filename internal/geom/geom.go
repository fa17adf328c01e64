// Package geom provides the integer-nanometre planar geometry used by every
// layout-facing subsystem: points, rectangles, polygons, rectilinear regions,
// clipping, rasterization and a simple spatial index.
//
// Coordinates are int64 nanometres. All mask layout in this repository is
// Manhattan (rectilinear); general polygons are supported where printed
// contours (which are not rectilinear) need to be represented.
package geom

import "fmt"

// Coord is a layout coordinate in integer nanometres.
type Coord = int64

// Point is a location on the layout plane, in nanometres.
type Point struct {
	X, Y Coord
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y Coord) Point { return Point{x, y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k Coord) Point { return Point{p.X * k, p.Y * k} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Manhattan returns the L1 distance between p and q.
func (p Point) Manhattan(q Point) Coord {
	return absC(p.X-q.X) + absC(p.Y-q.Y)
}

func absC(v Coord) Coord {
	if v < 0 {
		return -v
	}
	return v
}
