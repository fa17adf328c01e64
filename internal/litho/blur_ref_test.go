package litho

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"postopc/internal/dsp/vek"
	"postopc/internal/geom"
)

// The fast model's blur against the per-row loop it replaced, which is
// kept here as the reference: blurAmplitudeRef convolves every mask row
// and every output row, on a tmp plane whose rows are nx floats apart.
// The model copies a row instead of convolving it when its inputs repeat
// the previous row's, and pads tmp's rows to whole 4-float vectors; the
// images must still match the reference bit for bit.

// blurAmplitudeRef is blurAmplitude as it was before rows were copied:
// same kernel, same tap order, its own buffers.
func blurAmplitudeRef(dst []float64, mask *geom.Raster, pol Polarity, sigma, px float64) float64 {
	bg := 1.0
	if pol == DarkField {
		bg = 0
	}
	nx, ny := mask.Nx, mask.Ny
	half := int(math.Ceil(3 * sigma / px))
	if half < 1 {
		half = 1
	}
	kern := make([]float64, 2*half+1)
	var ksum float64
	for i := -half; i <= half; i++ {
		v := math.Exp(-0.5 * sq(float64(i)*px/sigma))
		kern[i+half] = v
		ksum += v
	}
	for i := range kern {
		kern[i] /= ksum
	}
	tmp := make([]float64, nx*(ny+2*half))
	pad := make([]float64, nx+2*half)
	for i := 0; i < half; i++ {
		pad[i] = bg
		pad[nx+half+i] = bg
	}
	edge := half * nx
	for i := 0; i < edge; i++ {
		tmp[i] = bg
		tmp[len(tmp)-edge+i] = bg
	}
	amp := pad[half : half+nx]
	for iy := 0; iy < ny; iy++ {
		cov := mask.Data[iy*nx : (iy+1)*nx]
		if pol == ClearField {
			for ix, v := range cov {
				amp[ix] = 1 - v
			}
		} else {
			copy(amp, cov)
		}
		vek.ConvRow(tmp[(half+iy)*nx:(half+iy+1)*nx], pad, kern)
	}
	for iy := 0; iy < ny; iy++ {
		vek.ConvCol(dst[iy*nx:(iy+1)*nx], tmp[iy*nx:], nx, kern)
	}
	return bg
}

// aerialRef is Gaussian.aerial on the reference blur.
func aerialRef(g *Gaussian, mask *geom.Raster, c Corner) *Image {
	r := g.recipe
	px := float64(mask.Pixel)
	blur := 0.30 * math.Abs(c.DefocusNM) * r.NA
	field := make([]float64, mask.Nx*mask.Ny)
	out := NewImage(mask)
	out.Background = blurAmplitudeRef(field, mask, r.Polarity, math.Sqrt(sq(g.SigmaAt(0))+blur*blur), px)
	if g.weight2 == 0 {
		for i, v := range field {
			out.Data[i] = v * v
		}
		return out
	}
	wide := make([]float64, len(field))
	blurAmplitudeRef(wide, mask, r.Polarity, math.Sqrt(sq(g.sigma2NM)+blur*blur), px)
	w := g.weight2
	for i, v := range field {
		a := (1-w)*v + w*wide[i]
		out.Data[i] = a * a
	}
	return out
}

// repeatMask is an nx × ny mask at pitch px whose rows are all distinct,
// except rows [start, start+n), which repeat one row.
func repeatMask(rng *rand.Rand, nx, ny, start, n int, px geom.Coord) *geom.Raster {
	ra := &geom.Raster{Pixel: px, Nx: nx, Ny: ny, Data: make([]float64, nx*ny)}
	for i := range ra.Data {
		ra.Data[i] = rng.Float64()
	}
	for iy := start + 1; iy < start+n; iy++ {
		copy(ra.Data[iy*nx:(iy+1)*nx], ra.Data[start*nx:])
	}
	return ra
}

// sameImage reports the first pixel where got and want differ in their
// bits (0 when their sizes or backgrounds differ), or -1 when they are
// identical.
func sameImage(got, want *Image) int {
	if got.Nx != want.Nx || got.Ny != want.Ny ||
		math.Float64bits(got.Background) != math.Float64bits(want.Background) {
		return 0
	}
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			return i
		}
	}
	return -1
}

// TestBlurMatchesPerRowReference images masks without repeated rows, with
// every row repeated, and with flat bands of 2·half, 2·half+1 and
// 2·half+2 rows (the shortest band whose output rows the blur copies) at
// the top, middle and bottom, for the half-width of each kernel component.
// It runs the single and the dual model, clear and dark field, at widths
// 1–3 (the vek kernels' Go loops) and 251, 252 and 254 px (the AVX2 blocks
// and the overlapping last block, with and without stride padding), through
// Aerial, AerialSeries (two defocus values sharing one mask's repeat runs)
// and AerialBatch (one scratch across masks of one size). A 40 nm pixel
// keeps the kernels short: half-widths of 6 and 8 px.
func TestBlurMatchesPerRowReference(t *testing.T) {
	const px, ny = 40, 60
	corners := []Corner{Nominal, {DefocusNM: 120, Dose: 1}, {Dose: 1.05}}
	for _, dual := range []bool{false, true} {
		for _, pol := range []Polarity{ClearField, DarkField} {
			r := testRecipe()
			r.Polarity = pol
			g, err := NewGaussian(r)
			if dual {
				g, err = NewGaussianDual(r, 100, -0.10)
			}
			if err != nil {
				t.Fatal(err)
			}
			halves := []int{blurHalf(g.SigmaAt(0), px)}
			if dual {
				halves = append(halves, blurHalf(g.sigma2NM, px))
			}
			for _, nx := range []int{1, 2, 3, 251, 252, 254} {
				rng := rand.New(rand.NewSource(int64(nx)))
				// The all-repeat mask comes first, so that runs left over from
				// it would break the next mask's image.
				names := []string{"all-repeat", "distinct"}
				masks := []*geom.Raster{repeatMask(rng, nx, ny, 0, ny, px), repeatMask(rng, nx, ny, 0, 0, px)}
				for _, h := range halves {
					for _, n := range []int{2 * h, 2*h + 1, 2*h + 2} {
						for pos, start := range []int{0, (ny - n) / 2, ny - n} {
							names = append(names, fmt.Sprintf("band%d-%s", n, []string{"top", "middle", "bottom"}[pos]))
							masks = append(masks, repeatMask(rng, nx, ny, start, n, px))
						}
					}
				}
				refs := make([][]*Image, len(masks))
				for mi, mask := range masks {
					name := fmt.Sprintf("dual=%t/pol=%d/nx=%d/%s", dual, pol, nx, names[mi])
					for _, c := range corners {
						refs[mi] = append(refs[mi], aerialRef(g, mask, c))
					}
					im, err := g.Aerial(mask, Nominal)
					if err != nil {
						t.Fatal(err)
					}
					if i := sameImage(im, refs[mi][0]); i >= 0 {
						t.Errorf("%s: Aerial differs from the reference at pixel %d", name, i)
					}
					series, err := g.AerialSeries(mask, corners)
					if err != nil {
						t.Fatal(err)
					}
					for ci := range corners {
						if i := sameImage(series[ci], refs[mi][ci]); i >= 0 {
							t.Errorf("%s: AerialSeries corner %d differs from the reference at pixel %d", name, ci, i)
						}
					}
				}
				batch, err := g.AerialBatch(masks, corners)
				if err != nil {
					t.Fatal(err)
				}
				for mi := range masks {
					for ci := range corners {
						if i := sameImage(batch[mi][ci], refs[mi][ci]); i >= 0 {
							t.Errorf("dual=%t/pol=%d/nx=%d/%s: AerialBatch corner %d differs from the reference at pixel %d",
								dual, pol, nx, names[mi], ci, i)
						}
					}
				}
			}
		}
	}
}

// TestMarkRepeats pins the repeat runs the blur's copies rest on: each row
// counts the rows directly above it with the same bits, and rows that
// differ only in the sign of zero do not repeat.
func TestMarkRepeats(t *testing.T) {
	negZero := math.Copysign(0, -1)
	mask := &geom.Raster{Pixel: 10, Nx: 2, Ny: 7, Data: []float64{
		0.5, 1, // row 0
		0.5, 1, // row 1: repeats row 0
		0.5, 1, // row 2: repeats rows 0-1
		0, 1, // row 3
		negZero, 1, // row 4: -0 is not +0
		negZero, 1, // row 5
		0.5, 1, // row 6
	}}
	ks := new(kernelScratch)
	ks.markRepeats(mask)
	want := []int32{0, 1, 2, 0, 0, 1, 0}
	if fmt.Sprint(ks.rep) != fmt.Sprint(want) {
		t.Fatalf("repeat runs = %v, want %v", ks.rep, want)
	}
}
