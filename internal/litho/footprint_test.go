package litho

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"postopc/internal/geom"
)

// randomFootprint lays a footprint on mask's grid whose rows each hold up
// to three random spans, 1 to nx pixels wide (narrow spans run the column
// kernel's Go loop), or repeat the row above, so that flat bands meet both
// rows whose spans the row above computed, and are copied, and rows whose
// spans it did not, and are convolved. About a quarter of the rows are
// empty.
func randomFootprint(rng *rand.Rand, mask *geom.Raster) *Footprint {
	fp := new(Footprint)
	fp.Reset(mask)
	for iy := range fp.rows {
		switch r := rng.Float64(); {
		case r < 0.25:
		case r < 0.6 && iy > 0:
			fp.rows[iy] = append(fp.rows[iy], fp.rows[iy-1]...)
		default:
			for k := rng.Intn(3) + 1; k > 0; k-- {
				x0 := rng.Intn(mask.Nx)
				w := 1 + rng.Intn(3)
				if rng.Intn(3) == 0 {
					w = 1 + rng.Intn(mask.Nx)
				}
				fp.rows[iy] = addSpan(fp.rows[iy], Span{x0, min(x0+w, mask.Nx)})
			}
		}
	}
	return fp
}

// AerialWithin computes each pixel of its footprint with the bits Aerial
// gives it, whatever the footprint: random footprints over masks with
// flat bands of 2·half+1 rows (the shortest band whose rows the blur
// copies) and 2·half+2 rows, for both kernel components' half-widths, at
// both polarities, with one and two kernel components, in focus and at
// 120 nm defocus, at widths of 3 px (every span on the Go loop) and 253 px.
// The image each call gets was recycled full of NaN, so a pixel that the
// footprint selects but the blur skipped, or one computed from a skipped
// one, reads NaN. A nil footprint gives Aerial's image.
func TestAerialWithinMatchesAerial(t *testing.T) {
	const px, ny = 40, 60
	corners := []Corner{Nominal, {DefocusNM: 120, Dose: 1}}
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
			for _, nx := range []int{3, 253} {
				rng := rand.New(rand.NewSource(int64(nx) + 7))
				for _, h := range halves {
					for _, n := range []int{2*h + 1, 2*h + 2} {
						mask := repeatMask(rng, nx, ny, (ny-n)/2, n, px)
						for ci, c := range corners {
							want, err := g.Aerial(mask, c)
							if err != nil {
								t.Fatal(err)
							}
							for trial := 0; trial < 4; trial++ {
								name := fmt.Sprintf("dual=%t/pol=%d/nx=%d/band%d/corner%d/trial%d", dual, pol, nx, n, ci, trial)
								fp := randomFootprint(rng, mask)
								if trial == 0 {
									fp = nil
								}
								RecycleImage(nanImage(nx * ny))
								got, err := g.AerialWithin(mask, c, fp)
								if err != nil {
									t.Fatal(err)
								}
								if math.Float64bits(got.Background) != math.Float64bits(want.Background) {
									t.Fatalf("%s: background %v, want %v", name, got.Background, want.Background)
								}
								for iy := 0; iy < ny; iy++ {
									for _, s := range fp.spansOf(iy, []Span{{0, nx}}) {
										for ix := s.X0; ix < s.X1; ix++ {
											if i := iy*nx + ix; math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
												t.Fatalf("%s: pixel (%d, %d) = %v, want Aerial's %v", name, ix, iy, got.Data[i], want.Data[i])
											}
										}
									}
								}
								RecycleImage(got)
							}
							RecycleImage(want)
						}
					}
				}
			}
		}
	}
}

// A footprint laid out on another grid is rejected: another size, origin
// or pitch, or the zero footprint, which has no grid.
func TestAerialWithinRejectsForeignFootprint(t *testing.T) {
	g, err := NewGaussian(testRecipe())
	if err != nil {
		t.Fatal(err)
	}
	mask := smallMask()
	others := map[string]*geom.Raster{
		"size":   geom.NewRaster(geom.R(-640, -640, 650, 640), 10),
		"origin": geom.NewRaster(geom.R(-630, -640, 650, 640), 10),
		"pitch":  geom.NewRaster(geom.R(-640, -640, 640, 640), 20),
	}
	for name, other := range others {
		fp := new(Footprint)
		fp.Reset(other)
		if _, err := g.AerialWithin(mask, Nominal, fp); !errors.Is(err, ErrFootprintGrid) {
			t.Errorf("footprint of another %s: error %v, want ErrFootprintGrid", name, err)
		}
	}
	if _, err := g.AerialWithin(mask, Nominal, new(Footprint)); !errors.Is(err, ErrFootprintGrid) {
		t.Errorf("zero footprint: error %v, want ErrFootprintGrid", err)
	}
}

// CoverSamples adds exactly the pixels Sample reads inside its box: for
// random boxes, some reaching past the grid and some degenerate in one
// axis as a probe along a fragment normal is, the footprint equals the
// union of the 2×2 blocks read at a lattice of points finer than half a
// pixel that includes the box's corners, clipped to the grid. Boxes pile
// up in one footprint, so its rows must stay sorted, disjoint and not
// touching while spans merge.
func TestCoverSamplesMatchesSample(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, px := range []geom.Coord{8, 10} {
		mask := geom.NewRaster(geom.R(-95, 30, 95+7*px, 30+9*px), px)
		fp := new(Footprint)
		fp.Reset(mask)
		want := make([]bool, mask.Nx*mask.Ny)
		for box := 0; box < 40; box++ {
			x0 := -130 + 400*rng.Float64()
			y0 := -10 + 200*rng.Float64()
			x1, y1 := x0+60*rng.Float64(), y0+60*rng.Float64()
			switch box % 3 {
			case 0:
				x1 = x0
			case 1:
				y1 = y0
			}
			fp.CoverSamples(x0, y0, x1, y1)
			const steps = 64 // lattice pitch under 1 nm: finer than half a pixel
			for i := 0; i <= steps; i++ {
				for j := 0; j <= steps; j++ {
					x := x0 + (x1-x0)*float64(i)/steps
					y := y0 + (y1-y0)*float64(j)/steps
					ix, iy, _, _ := sampleCell(mask.Origin, mask.Pixel, x, y)
					for _, p := range [][2]int{{ix, iy}, {ix + 1, iy}, {ix, iy + 1}, {ix + 1, iy + 1}} {
						if p[0] >= 0 && p[0] < mask.Nx && p[1] >= 0 && p[1] < mask.Ny {
							want[p[1]*mask.Nx+p[0]] = true
						}
					}
				}
			}
			for iy := 0; iy < mask.Ny; iy++ {
				row := fp.Row(iy)
				got := make([]bool, mask.Nx)
				for k, s := range row {
					if s.X0 >= s.X1 || s.X0 < 0 || s.X1 > mask.Nx || k > 0 && row[k-1].X1 >= s.X0 {
						t.Fatalf("pixel %d, box %d: row %d spans %v are not sorted, disjoint, non-touching and inside the grid", px, box, iy, row)
					}
					for ix := s.X0; ix < s.X1; ix++ {
						got[ix] = true
					}
				}
				for ix, g := range got {
					if g != want[iy*mask.Nx+ix] {
						t.Fatalf("pixel %d, box %d: pixel (%d, %d) covered %v, read by Sample %v", px, box, ix, iy, g, want[iy*mask.Nx+ix])
					}
				}
			}
		}
	}
}
