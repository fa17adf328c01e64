package opc

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"postopc/internal/geom"
	"postopc/internal/litho"
	"postopc/internal/pdk"
)

// nanOutside images through litho's footprint path and then sets every
// pixel outside the footprint to NaN, so a result that read one would
// change. It counts the pixels it computed and those it poisoned.
type nanOutside struct {
	*litho.Gaussian
	inside, outside *int
}

func (m nanOutside) AerialWithin(mask *geom.Raster, c litho.Corner, fp *litho.Footprint) (*litho.Image, error) {
	im, err := m.Gaussian.AerialWithin(mask, c, fp)
	if err != nil {
		return nil, err
	}
	in := 0
	for iy := 0; iy < im.Ny; iy++ {
		row := im.Data[iy*im.Nx : (iy+1)*im.Nx]
		x := 0
		for _, s := range fp.Row(iy) {
			for ; x < s.X0; x++ {
				row[x] = math.NaN()
			}
			in += s.X1 - s.X0
			x = s.X1
		}
		for ; x < im.Nx; x++ {
			row[x] = math.NaN()
		}
	}
	*m.inside += in
	*m.outside += im.Nx*im.Ny - in
	return im, nil
}

// dense hides the footprint method, so simulate images every pixel.
type dense struct{ litho.Model }

// ModelBased and Verify give bit-identical results whether each simulation
// computes every pixel or only the footprint of the fragments' EPE
// probes, with every other pixel NaN: on polyStrip with the PDK's
// dual-Gaussian model, on a line between two context lines that OPC does
// not move (their fragments are not probed), on dark-field openings with
// the single-Gaussian model, and on two lines 20 nm apart that print as
// one, so the facing fragments find no edge and read their whole ±80 nm
// range, printed throughout (a NaN pixel reads as unprinted). Verify runs
// at a defocused, overdosed corner. The footprint must leave most pixels
// out, or the test shows little.
func TestFootprintImagingMatchesDense(t *testing.T) {
	pdkModel, err := pdk.N90().FastModel()
	if err != nil {
		t.Fatal(err)
	}
	dark := testRecipe()
	dark.Polarity = litho.DarkField
	darkModel, err := litho.NewGaussian(dark)
	if err != nil {
		t.Fatal(err)
	}
	line := []geom.Polygon{geom.R(-65, -400, 65, 400).Polygon()}
	cases := []struct {
		name           string
		model          *litho.Gaussian
		drawn, context []geom.Polygon
	}{
		{"polyStrip", pdkModel, polyStrip(), nil},
		{"context", gaussModel(t).(*litho.Gaussian), line, []geom.Polygon{
			geom.R(-65-320, -400, 65-320, 400).Polygon(),
			geom.R(-65+320, -500, 65+320, 300).Polygon(),
		}},
		{"dark field", darkModel, []geom.Polygon{
			geom.R(-60, -300, 60, 300).Polygon(),
			geom.R(200, -300, 330, 250).Polygon(),
		}, nil},
		{"merged", gaussModel(t).(*litho.Gaussian), []geom.Polygon{
			geom.R(-150, -400, -20, 400).Polygon(),
			geom.R(0, -400, 130, 400).Polygon(),
		}, nil},
	}
	corner := litho.Corner{DefocusNM: 80, Dose: 1.04}
	for _, tc := range cases {
		var inside, outside int
		sparse := nanOutside{Gaussian: tc.model, inside: &inside, outside: &outside}
		results := make([]*Result, 2)
		epes := make([][]float64, 2)
		stats := make([]EPEStats, 2)
		for i, m := range []litho.Model{dense{tc.model}, sparse} {
			res, err := ModelBased(m, tc.drawn, tc.context, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			results[i] = res
			epes[i], stats[i], err = Verify(m, res.Polygons, tc.context, res.Fragmented, corner, 8)
			if err != nil {
				t.Fatal(err)
			}
		}
		want, got := *results[0], *results[1]
		if !sameBits(got.FinalEPE, want.FinalEPE) || !sameBits(epes[1], epes[0]) {
			t.Errorf("%s: EPEs differ: final %v vs %v, verify %v vs %v", tc.name, got.FinalEPE, want.FinalEPE, epes[1], epes[0])
		}
		got.FinalEPE, want.FinalEPE = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: results differ:\n%+v\n%+v", tc.name, got, want)
		}
		if stats[1] != stats[0] {
			t.Errorf("%s: verify stats differ: %v vs %v", tc.name, stats[1], stats[0])
		}
		if share := float64(inside) / float64(inside+outside); inside == 0 || share > 0.5 {
			t.Errorf("%s: the footprints held %.1f%% of the pixels, want some and under half", tc.name, 100*share)
		} else {
			t.Logf("%s: footprints held %.1f%% of %d pixels over %d simulations", tc.name, 100*share, inside+outside, got.Sims+1)
		}
	}
}

// Every sample MeasureEPE can take reads only pixels coverProbes added:
// on rasters of random origin and size, with 10 and 8 nm pixels, an image
// that is NaN outside the footprint gives a number at every position
// within ±searchNM of every fragment's control point along its normal (a
// sample that reads a NaN pixel is NaN even at weight 0), at a lattice of
// distances that includes both ends. Fragments come from random polygons
// inside and reaching past the raster, with every normal.
func TestCoverProbesHoldsEveryRead(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		px := geom.Coord(8 + 2*rng.Intn(2))
		x0, y0 := geom.Coord(rng.Intn(100)-50), geom.Coord(rng.Intn(100)-50)
		mask := geom.NewRaster(geom.R(x0, y0, x0+300+geom.Coord(rng.Intn(400)), y0+300+geom.Coord(rng.Intn(400))), px)
		var frags []*FragmentedPolygon
		for k := 0; k < 3; k++ {
			bx, by := geom.Coord(rng.Intn(600)-100), geom.Coord(rng.Intn(600)-100)
			fpg, err := Fragmentize(geom.R(bx, by, bx+20+geom.Coord(rng.Intn(300)), by+20+geom.Coord(rng.Intn(300))).Polygon(), DefaultFragmentOptions())
			if err != nil {
				t.Fatal(err)
			}
			frags = append(frags, fpg)
		}
		fp := new(litho.Footprint)
		coverProbes(fp, mask, frags)
		im := litho.NewImage(mask)
		for iy := 0; iy < im.Ny; iy++ {
			for ix := 0; ix < im.Nx; ix++ {
				im.Data[iy*im.Nx+ix] = math.NaN()
			}
			for _, s := range fp.Row(iy) {
				for ix := s.X0; ix < s.X1; ix++ {
					im.Data[iy*im.Nx+ix] = 0.5
				}
			}
		}
		s := float64(searchNM)
		for _, fpg := range frags {
			for _, f := range fpg.Frags {
				const steps = 640 // a quarter nm apart
				for k := 0; k <= steps; k++ {
					d := -s + 2*s*float64(k)/steps
					if v := im.Sample(probeAt(f, d)); math.IsNaN(v) {
						t.Fatalf("trial %d: the sample %v nm along %v from %v read a pixel outside the footprint", trial, d, f.Normal, f.Control)
					}
				}
			}
		}
	}
}

// Goroutines running OPC at once share the footprint free list: 4 of them
// loop over windows of three sizes, so each footprint handed out was last
// laid out on another goroutine's grid of another size, and each result
// must have the bits of a serial run. Run with -race this also checks the
// list's locking.
func TestModelBasedConcurrentFootprints(t *testing.T) {
	m := gaussModel(t)
	windows := [][]geom.Polygon{
		{geom.R(-65, -400, 65, 400).Polygon()},
		{geom.R(-45, -700, 45, 700).Polygon(), geom.R(205, -700, 295, 700).Polygon()},
		polyStrip()[:4],
	}
	opt := DefaultOptions()
	opt.Iterations = 3
	want := make([][]float64, len(windows))
	for i, w := range windows {
		res, err := ModelBased(m, w, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.FinalEPE
	}
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < rounds*len(windows); k++ {
				i := (w + k) % len(windows)
				res, err := ModelBased(m, windows[i], nil, opt)
				if err != nil {
					t.Error(err)
					return
				}
				if !sameBits(res.FinalEPE, want[i]) {
					t.Errorf("worker %d, round %d, window %d: EPEs differ from the serial run", w, k, i)
				}
			}
		}(w)
	}
	wg.Wait()
}

// sameBits reports whether a and b hold the same IEEE-754 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
