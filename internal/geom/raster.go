package geom

// Raster is a uniform float64 pixel grid over a layout window, used to turn
// mask geometry into the transmission function consumed by the imaging code.
// Pixel values are area-coverage fractions in [0,1].
type Raster struct {
	// Origin is the layout coordinate of the lower-left corner of pixel
	// (0,0), in nm.
	Origin Point
	// Pixel is the pixel pitch in nm.
	Pixel Coord
	// Nx, Ny are the grid dimensions.
	Nx, Ny int
	// Data holds Nx*Ny coverage values in row-major order
	// (index = iy*Nx + ix).
	Data []float64
}

// NewRaster allocates a zeroed raster covering window w at the given pixel
// pitch. The grid is sized to cover w completely (the last row/column may
// extend past w).
func NewRaster(w Rect, pixel Coord) *Raster {
	ra := new(Raster)
	ra.Reset(w, pixel)
	return ra
}

// Reset reconfigures ra to a zeroed raster covering window w at the given
// pixel pitch, reusing the existing Data allocation when its capacity
// allows. The result is indistinguishable from a fresh NewRaster, which
// makes Raster values poolable.
//
//postopc:allocfree
func (ra *Raster) Reset(w Rect, pixel Coord) {
	if pixel <= 0 {
		panic("geom: raster pixel pitch must be positive")
	}
	nx := int((w.W() + pixel - 1) / pixel)
	ny := int((w.H() + pixel - 1) / pixel)
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	ra.Origin = Point{w.X0, w.Y0}
	ra.Pixel = pixel
	ra.Nx = nx
	ra.Ny = ny
	if cap(ra.Data) < nx*ny {
		ra.Data = make([]float64, nx*ny) //postopc:nolint:allocbudget growth at a new raster size is the cold path
		return
	}
	ra.Data = ra.Data[:nx*ny]
	for i := range ra.Data {
		ra.Data[i] = 0
	}
}

// At returns the coverage of pixel (ix, iy); out-of-range pixels read 0.
//
//postopc:allocfree
func (ra *Raster) At(ix, iy int) float64 {
	if ix < 0 || iy < 0 || ix >= ra.Nx || iy >= ra.Ny {
		return 0
	}
	return ra.Data[iy*ra.Nx+ix]
}

// Set assigns the coverage of pixel (ix, iy); out-of-range writes are
// ignored.
//
//postopc:allocfree
func (ra *Raster) Set(ix, iy int, v float64) {
	if ix < 0 || iy < 0 || ix >= ra.Nx || iy >= ra.Ny {
		return
	}
	ra.Data[iy*ra.Nx+ix] = v
}

// Bounds returns the layout-space rectangle covered by the raster.
func (ra *Raster) Bounds() Rect {
	return Rect{
		ra.Origin.X, ra.Origin.Y,
		ra.Origin.X + Coord(ra.Nx)*ra.Pixel,
		ra.Origin.Y + Coord(ra.Ny)*ra.Pixel,
	}
}

// PixelCenter returns the layout coordinate of the center of pixel (ix, iy)
// in nm as floats (centers fall on half-pixel positions).
func (ra *Raster) PixelCenter(ix, iy int) (x, y float64) {
	x = float64(ra.Origin.X) + (float64(ix)+0.5)*float64(ra.Pixel)
	y = float64(ra.Origin.Y) + (float64(iy)+0.5)*float64(ra.Pixel)
	return
}

// AddRect accumulates the exact area coverage of r into the raster. Values
// are added, so disjoint rectangles (e.g. a normalized Region) sum to a
// physical coverage in [0,1].
func (ra *Raster) AddRect(r Rect) {
	r = r.Intersect(ra.Bounds())
	if r.Empty() {
		return
	}
	px := ra.Pixel
	ix0 := int((r.X0 - ra.Origin.X) / px)
	iy0 := int((r.Y0 - ra.Origin.Y) / px)
	ix1 := int((r.X1 - ra.Origin.X - 1) / px)
	iy1 := int((r.Y1 - ra.Origin.Y - 1) / px)
	pixArea := float64(px) * float64(px)
	for iy := iy0; iy <= iy1 && iy < ra.Ny; iy++ {
		py0 := ra.Origin.Y + Coord(iy)*px
		cell := Rect{0, py0, 0, py0 + px}
		for ix := ix0; ix <= ix1 && ix < ra.Nx; ix++ {
			cell.X0 = ra.Origin.X + Coord(ix)*px
			cell.X1 = cell.X0 + px
			ov := r.Intersect(cell)
			if !ov.Empty() {
				ra.Data[iy*ra.Nx+ix] += float64(ov.Area()) / pixArea
			}
		}
	}
}

// AddRegion accumulates the coverage of rg (normalized internally, so
// overlapping input rectangles still produce coverage ≤ 1).
func (ra *Raster) AddRegion(rg Region) {
	for _, r := range rg.Normalize() {
		ra.AddRect(r)
	}
}

// AddPolygon accumulates the coverage of an arbitrary simple polygon using
// 4×4 supersampling per pixel. Rectilinear polygons take the exact path via
// Region decomposition.
func (ra *Raster) AddPolygon(pg Polygon) {
	if rg := RegionFromPolygon(pg); rg != nil {
		// Already normalized: AddRegion would normalize it again into the
		// same rectangles.
		for _, r := range rg {
			ra.AddRect(r)
		}
		return
	}
	bb := pg.BBox().Intersect(ra.Bounds())
	if bb.Empty() {
		return
	}
	px := ra.Pixel
	ix0 := int((bb.X0 - ra.Origin.X) / px)
	iy0 := int((bb.Y0 - ra.Origin.Y) / px)
	ix1 := int((bb.X1 - ra.Origin.X - 1) / px)
	iy1 := int((bb.Y1 - ra.Origin.Y - 1) / px)
	const ss = 4
	for iy := iy0; iy <= iy1 && iy < ra.Ny; iy++ {
		for ix := ix0; ix <= ix1 && ix < ra.Nx; ix++ {
			hits := 0
			for sy := 0; sy < ss; sy++ {
				for sx := 0; sx < ss; sx++ {
					x := ra.Origin.X + Coord(ix)*px + Coord((2*sx+1))*px/(2*ss)
					y := ra.Origin.Y + Coord(iy)*px + Coord((2*sy+1))*px/(2*ss)
					if pg.Contains(Point{x, y}) {
						hits++
					}
				}
			}
			if hits > 0 {
				ra.Data[iy*ra.Nx+ix] += float64(hits) / (ss * ss)
			}
		}
	}
}

// Clamp limits every pixel to [0, 1].
func (ra *Raster) Clamp() {
	for i, v := range ra.Data {
		if v < 0 {
			ra.Data[i] = 0
		} else if v > 1 {
			ra.Data[i] = 1
		}
	}
}

// CoverageArea returns the summed coverage converted back to nm².
func (ra *Raster) CoverageArea() float64 {
	var s float64
	for _, v := range ra.Data {
		s += v
	}
	return s * float64(ra.Pixel) * float64(ra.Pixel)
}
