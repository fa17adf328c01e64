package geom

import (
	"cmp"
	"slices"
)

// Region is a rectilinear area represented as a set of rectangles. The
// rectangles of a normalized Region are pairwise disjoint and organized as
// horizontal slabs; most operations normalize internally, so callers may
// build Regions from overlapping rectangles freely.
//
// Regions are how the extraction code forms boolean combinations of layout
// layers (e.g. gate area = poly ∩ diffusion) without a general polygon
// clipper: all mask layout in this repository is Manhattan.
type Region []Rect

// RegionFromRects builds a Region, dropping empty rectangles.
func RegionFromRects(rs ...Rect) Region {
	var out Region
	for _, r := range rs {
		if !r.Empty() {
			out = append(out, r)
		}
	}
	return out
}

// RegionFromPolygon decomposes a rectilinear polygon into a normalized
// Region. Non-rectilinear input returns nil.
func RegionFromPolygon(pg Polygon) Region {
	if r, ok := pg.AsRect(); ok {
		return Region{r}
	}
	if !pg.IsRectilinear() {
		return nil
	}
	// Vertical edges of the polygon.
	type vedge struct {
		x, y0, y1 Coord
	}
	edges := make([]vedge, 0, len(pg)/2+1)
	ys := make([]Coord, 0, len(pg))
	n := len(pg)
	for i := 0; i < n; i++ {
		a, b := pg[i], pg[(i+1)%n]
		ys = append(ys, a.Y)
		if a.X == b.X && a.Y != b.Y {
			y0, y1 := a.Y, b.Y
			if y0 > y1 {
				y0, y1 = y1, y0
			}
			edges = append(edges, vedge{a.X, y0, y1})
		}
	}
	ys = dedupSortedCoords(ys)
	var out Region
	xs := make([]Coord, 0, len(edges))
	for bi := 0; bi+1 < len(ys); bi++ {
		y0, y1 := ys[bi], ys[bi+1]
		if y0 >= y1 {
			continue
		}
		mid := y0 + (y1-y0)/2
		xs = xs[:0]
		for _, e := range edges {
			if e.y0 <= mid && mid < e.y1 {
				xs = append(xs, e.x)
			}
		}
		slices.Sort(xs)
		for i := 0; i+1 < len(xs); i += 2 {
			if xs[i] < xs[i+1] {
				out = append(out, Rect{xs[i], y0, xs[i+1], y1})
			}
		}
	}
	return out.Normalize()
}

func dedupSortedCoords(cs []Coord) []Coord {
	slices.Sort(cs)
	out := cs[:0]
	for i, c := range cs {
		if i == 0 || c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// Normalize returns an equivalent Region whose rectangles are pairwise
// disjoint horizontal slabs; slabs with identical x-intervals in adjacent
// bands are merged vertically. Normalize is idempotent.
func (rg Region) Normalize() Region {
	if len(rg) == 0 {
		return nil
	}
	// Collect band boundaries.
	ys := make([]Coord, 0, 2*len(rg))
	for _, r := range rg {
		if r.Empty() {
			continue
		}
		ys = append(ys, r.Y0, r.Y1)
	}
	if len(ys) == 0 {
		return nil
	}
	ys = dedupSortedCoords(ys)

	var out Region
	// prev band's merged intervals, to allow vertical coalescing.
	var prev []interval
	var prevY0, prevY1 Coord
	flushPrev := func() {
		for _, iv := range prev {
			out = append(out, Rect{iv.x0, prevY0, iv.x1, prevY1})
		}
		prev = nil
	}
	// Each band gathers and merges its intervals in place in one of two
	// buffers; the other holds prev while prev is still open.
	var bufs [2][]interval
	cur := 0
	for bi := 0; bi+1 < len(ys); bi++ {
		y0, y1 := ys[bi], ys[bi+1]
		ivs := bufs[cur][:0]
		for _, r := range rg {
			if r.Empty() || r.Y0 > y0 || r.Y1 < y1 {
				continue
			}
			ivs = append(ivs, interval{r.X0, r.X1})
		}
		bufs[cur] = ivs
		if len(ivs) == 0 {
			flushPrev()
			continue
		}
		// Intervals with equal x0 merge whatever their order.
		slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.x0, b.x0) })
		merged := ivs[:1]
		for _, iv := range ivs[1:] {
			last := &merged[len(merged)-1]
			if iv.x0 <= last.x1 {
				if iv.x1 > last.x1 {
					last.x1 = iv.x1
				}
			} else {
				merged = append(merged, iv)
			}
		}
		// Try to coalesce with the previous band.
		if prev != nil && prevY1 == y0 && sameIntervals(prev, merged) {
			prevY1 = y1
			continue
		}
		flushPrev()
		prev, prevY0, prevY1 = merged, y0, y1
		cur ^= 1
	}
	flushPrev()
	return out
}

// interval is an x-extent within one horizontal slab of a Region.
type interval struct{ x0, x1 Coord }

func sameIntervals(a, b []interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Area returns the total area of rg in nm², counting overlaps once.
func (rg Region) Area() int64 {
	var s int64
	for _, r := range rg.Normalize() {
		s += r.Area()
	}
	return s
}

// BBox returns the bounding box of rg.
func (rg Region) BBox() Rect {
	var b Rect
	for _, r := range rg {
		b = b.Union(r)
	}
	return b
}

// Empty reports whether rg covers zero area.
func (rg Region) Empty() bool {
	for _, r := range rg {
		if !r.Empty() {
			return false
		}
	}
	return true
}

// Intersect returns the intersection of rg and other.
func (rg Region) Intersect(other Region) Region {
	var out Region
	for _, a := range rg {
		for _, b := range other {
			if c := a.Intersect(b); !c.Empty() {
				out = append(out, c)
			}
		}
	}
	return out.Normalize()
}

// Union returns the union of rg and other.
func (rg Region) Union(other Region) Region {
	out := make(Region, 0, len(rg)+len(other))
	out = append(out, rg...)
	out = append(out, other...)
	return out.Normalize()
}

// Subtract returns rg minus other.
func (rg Region) Subtract(other Region) Region {
	cur := rg.Normalize()
	for _, b := range other.Normalize() {
		var next Region
		for _, a := range cur {
			next = append(next, subtractRect(a, b)...)
		}
		cur = next
	}
	return cur.Normalize()
}

// subtractRect returns a minus b as up to four rectangles.
func subtractRect(a, b Rect) []Rect {
	c := a.Intersect(b)
	if c.Empty() {
		return []Rect{a}
	}
	var out []Rect
	add := func(r Rect) {
		if !r.Empty() {
			out = append(out, r)
		}
	}
	add(Rect{a.X0, a.Y0, a.X1, c.Y0}) // below
	add(Rect{a.X0, c.Y1, a.X1, a.Y1}) // above
	add(Rect{a.X0, c.Y0, c.X0, c.Y1}) // left
	add(Rect{c.X1, c.Y0, a.X1, c.Y1}) // right
	return out
}

// Contains reports whether p is covered by rg.
func (rg Region) Contains(p Point) bool {
	for _, r := range rg {
		if !r.Empty() && p.X >= r.X0 && p.X < r.X1 && p.Y >= r.Y0 && p.Y < r.Y1 {
			return true
		}
	}
	return false
}

// ClipToRect returns the part of rg inside w.
func (rg Region) ClipToRect(w Rect) Region {
	var out Region
	for _, r := range rg {
		if c := r.Intersect(w); !c.Empty() {
			out = append(out, c)
		}
	}
	return out.Normalize()
}
