package litho

import (
	"fmt"
	"math"

	"postopc/internal/geom"
)

// Image is an aerial-image intensity map over a layout window. Intensities
// are normalized to the clear-field level (open frame = 1.0).
type Image struct {
	// Origin is the layout coordinate of the lower-left corner, in nm.
	Origin geom.Point
	// Pixel is the pixel pitch in nm.
	Pixel geom.Coord
	// Nx, Ny are the grid dimensions.
	Nx, Ny int
	// Data holds Nx*Ny intensities, row-major.
	Data []float64
	// Background is the intensity reads outside the window return: the
	// unpatterned-field level of the mask polarity — 1.0 for a clear-field
	// mask (open background), 0.0 for dark-field (opaque background). Set
	// by the model that produced the image.
	Background float64
}

// NewImage allocates a zeroed image aligned with the given mask raster.
// Background defaults to the clear-field level 1.0; models producing
// dark-field images overwrite it.
func NewImage(mask *geom.Raster) *Image {
	return &Image{
		Origin:     mask.Origin,
		Pixel:      mask.Pixel,
		Nx:         mask.Nx,
		Ny:         mask.Ny,
		Data:       make([]float64, mask.Nx*mask.Ny),
		Background: 1,
	}
}

// At returns the intensity of pixel (ix, iy); out-of-range reads return the
// Background level so that scans off the window edge behave as unpatterned
// field for the mask's polarity.
func (im *Image) At(ix, iy int) float64 {
	if ix < 0 || iy < 0 || ix >= im.Nx || iy >= im.Ny {
		return im.Background
	}
	return im.Data[iy*im.Nx+ix]
}

// Bounds returns the layout-space rectangle covered by the image.
func (im *Image) Bounds() geom.Rect {
	return geom.Rect{
		X0: im.Origin.X, Y0: im.Origin.Y,
		X1: im.Origin.X + geom.Coord(im.Nx)*im.Pixel,
		Y1: im.Origin.Y + geom.Coord(im.Ny)*im.Pixel,
	}
}

// Sample returns the bilinearly interpolated intensity at layout position
// (x, y) in nm.
func (im *Image) Sample(x, y float64) float64 {
	ix, iy, tx, ty := sampleCell(im.Origin, im.Pixel, x, y)
	v00 := im.At(ix, iy)
	v10 := im.At(ix+1, iy)
	v01 := im.At(ix, iy+1)
	v11 := im.At(ix+1, iy+1)
	return v00*(1-tx)*(1-ty) + v10*tx*(1-ty) + v01*(1-tx)*ty + v11*tx*ty
}

// sampleCell locates layout position (x, y) on the pixel grid of the given
// origin and pitch for Sample: (ix, iy) is the lower-left pixel of the 2×2
// block whose centers surround the position, and tx, ty are the weights of
// the block's right column and top row. Footprint.CoverSamples relies on
// ix and iy never decreasing as x and y grow.
func sampleCell(origin geom.Point, pixel geom.Coord, x, y float64) (ix, iy int, tx, ty float64) {
	// Convert to pixel-center coordinates.
	fx := (x-float64(origin.X))/float64(pixel) - 0.5
	fy := (y-float64(origin.Y))/float64(pixel) - 0.5
	ix = int(math.Floor(fx))
	iy = int(math.Floor(fy))
	return ix, iy, fx - float64(ix), fy - float64(iy)
}

// MinMax returns the extreme intensities of the image.
func (im *Image) MinMax() (lo, hi float64) {
	if len(im.Data) == 0 {
		return 0, 0
	}
	lo, hi = im.Data[0], im.Data[0]
	for _, v := range im.Data[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return
}

// Printed reports whether the resist feature is present at pixel (ix, iy)
// for the given threshold and polarity.
func (im *Image) Printed(ix, iy int, threshold float64, pol Polarity) bool {
	v := im.At(ix, iy)
	if pol == ClearField {
		return v < threshold
	}
	return v > threshold
}

// PrintedCoverage returns the fraction of pixels inside rect r (layout nm)
// that print, a cheap area metric used by tests.
func (im *Image) PrintedCoverage(r geom.Rect, threshold float64, pol Polarity) float64 {
	r = r.Intersect(im.Bounds())
	if r.Empty() {
		return 0
	}
	ix0 := int((r.X0 - im.Origin.X) / im.Pixel)
	iy0 := int((r.Y0 - im.Origin.Y) / im.Pixel)
	ix1 := int((r.X1 - im.Origin.X - 1) / im.Pixel)
	iy1 := int((r.Y1 - im.Origin.Y - 1) / im.Pixel)
	total, printed := 0, 0
	for iy := iy0; iy <= iy1 && iy < im.Ny; iy++ {
		for ix := ix0; ix <= ix1 && ix < im.Nx; ix++ {
			total++
			if im.Printed(ix, iy, threshold, pol) {
				printed++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(printed) / float64(total)
}

// ILS returns the image log slope |d ln I / dx| (1/nm) at layout position
// (x, y) along the given unit direction (dx, dy), estimated by central
// differences at half-pixel steps. Higher ILS means a sharper, more
// dose-stable edge.
func (im *Image) ILS(x, y, dx, dy float64) float64 {
	h := float64(im.Pixel) / 2
	i0 := im.Sample(x-dx*h, y-dy*h)
	i1 := im.Sample(x+dx*h, y+dy*h)
	ic := im.Sample(x, y)
	if ic <= 1e-9 {
		return 0
	}
	return math.Abs((i1 - i0) / (2 * h) / ic)
}

// String summarizes the image.
func (im *Image) String() string {
	lo, hi := im.MinMax()
	return fmt.Sprintf("image %dx%d px=%dnm I=[%.3f,%.3f]", im.Nx, im.Ny, im.Pixel, lo, hi)
}
