package litho

import "postopc/internal/geom"

// LineArray describes a test pattern of parallel vertical lines, the
// standard structure for CD-through-pitch characterization.
type LineArray struct {
	// WidthNM is the drawn line width (the CD).
	WidthNM geom.Coord
	// PitchNM is the line-to-line pitch; PitchNM == 0 or a single line
	// means isolated.
	PitchNM geom.Coord
	// Count is the number of lines.
	Count int
	// LengthNM is the line length (vertical extent).
	LengthNM geom.Coord
}

// Rects returns the drawn rectangles of the array, centered on the origin.
func (la LineArray) Rects() []geom.Rect {
	if la.Count < 1 {
		return nil
	}
	pitch := la.PitchNM
	if pitch == 0 {
		pitch = la.WidthNM * 10
	}
	span := geom.Coord(la.Count-1) * pitch
	var out []geom.Rect
	for i := 0; i < la.Count; i++ {
		cx := -span/2 + geom.Coord(i)*pitch
		out = append(out, geom.R(cx-la.WidthNM/2, -la.LengthNM/2, cx+la.WidthNM/2, la.LengthNM/2))
	}
	return out
}

// CenterXs returns the x coordinate of each line center.
func (la LineArray) CenterXs() []float64 {
	pitch := la.PitchNM
	if pitch == 0 {
		pitch = la.WidthNM * 10
	}
	span := float64(la.Count-1) * float64(pitch)
	var out []float64
	for i := 0; i < la.Count; i++ {
		out = append(out, -span/2+float64(i)*float64(pitch))
	}
	return out
}

// RasterizeRects builds a mask raster covering the bounding box of rects
// expanded by guard, at the given pixel pitch.
func RasterizeRects(rects []geom.Rect, pixel, guard geom.Coord) *geom.Raster {
	var bb geom.Rect
	for _, r := range rects {
		bb = bb.Union(r)
	}
	ra := geom.NewRaster(bb.Expand(guard), pixel)
	for _, r := range rects {
		ra.AddRect(r)
	}
	ra.Clamp()
	return ra
}

// RasterizeInWindow builds a mask raster over exactly the given window (no
// extra guard — the caller's window already includes it), at the given
// pixel pitch. The raster comes from an internal pool: callers that are done
// with it (and hold no aliases of its Data) should hand it back with
// RecycleRaster so full-chip window loops rasterize without allocating.
func RasterizeInWindow(polys []geom.Polygon, window geom.Rect, pixel geom.Coord) *geom.Raster {
	ra := borrowRaster(window, pixel)
	for _, pg := range polys {
		ra.AddPolygon(pg)
	}
	ra.Clamp()
	return ra
}

// RasterizePolygons builds a mask raster for arbitrary polygons (OPC output
// is rectilinear but not rectangular) over their bounding box expanded by
// guard. Like RasterizeInWindow's, the raster comes from the internal pool,
// and callers done with it may hand it back with RecycleRaster.
func RasterizePolygons(polys []geom.Polygon, pixel, guard geom.Coord) *geom.Raster {
	var bb geom.Rect
	for _, pg := range polys {
		bb = bb.Union(pg.BBox())
	}
	return RasterizeInWindow(polys, bb.Expand(guard), pixel)
}
