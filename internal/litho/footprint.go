package litho

import (
	"errors"
	"slices"

	"postopc/internal/geom"
)

// ErrFootprintGrid is returned by Gaussian.AerialWithin for a footprint
// laid out on a pixel grid other than the mask's.
var ErrFootprintGrid = errors.New("litho: footprint grid differs from the mask's")

// Span is the half-open range [X0, X1) of pixel columns in one image row.
type Span struct{ X0, X1 int }

// Footprint selects the pixels of an image that Gaussian.AerialWithin
// computes: for each row of a mask's pixel grid, a list of column spans,
// sorted, disjoint and not touching. Reset lays it out on a grid and
// CoverSamples adds pixels, clipped to the grid, so every span lies inside
// it. A footprint keeps its storage across Resets: once its rows have
// grown, reusing it allocates nothing.
type Footprint struct {
	origin geom.Point
	pixel  geom.Coord
	nx     int
	rows   [][]Span
}

// Reset empties fp and lays it out on mask's pixel grid.
func (fp *Footprint) Reset(mask *geom.Raster) {
	fp.origin, fp.pixel, fp.nx = mask.Origin, mask.Pixel, mask.Nx
	rows := fp.rows[:cap(fp.rows)] // rows past the old length keep their spans' storage
	if len(rows) < mask.Ny {
		rows = append(rows, make([][]Span, mask.Ny-len(rows))...)
	}
	rows = rows[:mask.Ny]
	for iy := range rows {
		rows[iy] = rows[iy][:0]
	}
	fp.rows = rows
}

// Row returns the spans of row iy.
func (fp *Footprint) Row(iy int) []Span { return fp.rows[iy] }

// on reports whether fp is laid out on mask's pixel grid.
func (fp *Footprint) on(mask *geom.Raster) bool {
	return fp.origin == mask.Origin && fp.pixel == mask.Pixel && fp.nx == mask.Nx && len(fp.rows) == mask.Ny
}

// CoverSamples adds every pixel that Image.Sample reads, on an image of
// fp's grid, at a layout position (x, y) with x0 ≤ x ≤ x1 and y0 ≤ y ≤ y1
// (nm). Sample interpolates the 2×2 block of pixels whose lower-left one
// sampleCell finds, and sampleCell's indices never decrease as x or y
// grows, so the block's corners at (x0, y0) and (x1, y1) bound every
// pixel read inside the box. The right column and top row of a block are
// read even where their weight is 0.
func (fp *Footprint) CoverSamples(x0, y0, x1, y1 float64) {
	ix0, iy0, _, _ := sampleCell(fp.origin, fp.pixel, x0, y0)
	ix1, iy1, _, _ := sampleCell(fp.origin, fp.pixel, x1, y1)
	s := Span{max(ix0, 0), min(ix1+2, fp.nx)}
	if s.X0 >= s.X1 {
		return
	}
	for iy := max(iy0, 0); iy <= min(iy1+1, len(fp.rows)-1); iy++ {
		fp.rows[iy] = addSpan(fp.rows[iy], s)
	}
}

// addSpan adds s to the sorted, disjoint, non-touching spans of a row,
// merging it with every span it overlaps or touches.
func addSpan(row []Span, s Span) []Span {
	i := 0
	for i < len(row) && row[i].X1 < s.X0 {
		i++
	}
	j := i
	for j < len(row) && row[j].X0 <= s.X1 {
		s.X0, s.X1 = min(s.X0, row[j].X0), max(s.X1, row[j].X1)
		j++
	}
	return slices.Replace(row, i, j, s)
}

// spansOf returns the spans of row iy, or full, the whole row, when fp is
// nil (every pixel).
func (fp *Footprint) spansOf(iy int, full []Span) []Span {
	if fp == nil {
		return full
	}
	return fp.rows[iy]
}
