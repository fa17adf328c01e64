package opc

import (
	"math"
	"math/rand"
	"testing"

	"postopc/internal/geom"
	"postopc/internal/litho"
)

// The edge search and the clearance probe against the loops they replaced,
// which are kept here as references: MeasureEPE must return their bits on
// any image, Clearance their distances on any region.

// measureEPERef is MeasureEPE as it was before the scan ran outward from
// the drawn edge: it samples the whole ±search grid, bisects every
// crossing and keeps the first with the strictly smallest |d|.
func measureEPERef(im *litho.Image, f *Fragment, threshold float64, pol litho.Polarity, search geom.Coord) (epe float64, found bool) {
	nx, ny := float64(f.Normal.X), float64(f.Normal.Y)
	cx, cy := float64(f.Control.X), float64(f.Control.Y)
	printed := func(d float64) bool {
		v := im.Sample(cx+nx*d, cy+ny*d)
		if pol == litho.ClearField {
			return v < threshold
		}
		return v > threshold
	}
	s := float64(search)
	const step = 2.0
	best := math.Inf(1)
	prev := -s
	prevIn := printed(prev)
	for d := -s + step; d <= s+step/2; d += step {
		if d > s {
			d = s
		}
		in := printed(d)
		if prevIn != in {
			lo, hi := prev, d
			for k := 0; k < 20; k++ {
				mid := (lo + hi) / 2
				if printed(mid) == prevIn {
					lo = mid
				} else {
					hi = mid
				}
			}
			cross := (lo + hi) / 2
			if !found || math.Abs(cross) < math.Abs(best) {
				best = cross
				found = true
			}
		}
		prev, prevIn = d, in
		if d == s {
			break
		}
	}
	if found {
		return best, true
	}
	if printed(0) {
		return s, false
	}
	return -s, false
}

// clearanceRef is Clearance as it was before probes were tested only
// against the rectangles meeting their segment.
func clearanceRef(f *Fragment, all geom.Region, maxNM geom.Coord) geom.Coord {
	const step = 10
	for d := geom.Coord(step); d <= maxNM; d += step {
		p := f.Control.Add(f.Normal.Scale(d))
		if all.Contains(p) {
			return d
		}
	}
	return maxNM
}

var normals = []geom.Point{geom.Pt(1, 0), geom.Pt(-1, 0), geom.Pt(0, 1), geom.Pt(0, -1)}

// MeasureEPE returns the reference's bits on 12,000 random images of 2–17
// × 2–17 px at pitches of 5, 8 and 10 nm: smooth and noisy intensities,
// either polarity and background, about one image in ten holding NaN
// pixels (which never print), constant images (no crossing anywhere),
// control points inside and off the window, every normal, and searches
// of −3 to 99 nm, odd ones included (the grid then straddles d = 0
// without sampling it).
func TestMeasureEPEMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	found := 0
	for trial := 0; trial < 12000; trial++ {
		px := []geom.Coord{5, 8, 10}[rng.Intn(3)]
		nx, ny := 2+rng.Intn(16), 2+rng.Intn(16)
		im := &litho.Image{
			Origin: geom.Pt(geom.Coord(rng.Intn(41)-20), geom.Coord(rng.Intn(41)-20)),
			Pixel:  px, Nx: nx, Ny: ny,
			Data:       make([]float64, nx*ny),
			Background: float64(rng.Intn(2)),
		}
		switch mode := rng.Intn(10); {
		case mode == 0: // constant: no crossing
			v := rng.Float64()
			for i := range im.Data {
				im.Data[i] = v
			}
		case mode < 5: // smooth: a few wide features
			fx, fy, ph := rng.Float64(), rng.Float64(), 6*rng.Float64()
			for iy := 0; iy < ny; iy++ {
				for ix := 0; ix < nx; ix++ {
					im.Data[iy*nx+ix] = 0.5 + 0.5*math.Sin(fx*float64(ix)+fy*float64(iy)+ph)
				}
			}
		default: // noise: many crossings on both sides
			for i := range im.Data {
				im.Data[i] = rng.Float64()
			}
		}
		if rng.Intn(10) == 0 {
			for k := rng.Intn(4) + 1; k > 0; k-- {
				im.Data[rng.Intn(len(im.Data))] = math.NaN()
			}
		}
		b := im.Bounds()
		f := &Fragment{
			Control: geom.Pt(b.X0-20+geom.Coord(rng.Int63n(int64(b.W()+41))), b.Y0-20+geom.Coord(rng.Int63n(int64(b.H()+41)))),
			Normal:  normals[rng.Intn(4)],
		}
		th := 0.1 + 0.8*rng.Float64()
		pol := []litho.Polarity{litho.ClearField, litho.DarkField}[rng.Intn(2)]
		search := geom.Coord(rng.Intn(103) - 3)
		got, gotFound := MeasureEPE(im, f, th, pol, search)
		want, wantFound := measureEPERef(im, f, th, pol, search)
		if math.Float64bits(got) != math.Float64bits(want) || gotFound != wantFound {
			t.Fatalf("trial %d (search %d, normal %v): MeasureEPE = %v (found %v), reference %v (found %v)",
				trial, search, f.Normal, got, gotFound, want, wantFound)
		}
		if gotFound {
			found++
		}
	}
	if found < 3000 {
		t.Fatalf("only %d of 12000 trials found an edge; the random images exercise too few crossings", found)
	}
}

// Two crossings equally far from the drawn edge, one on each side: the
// one on the negative side wins, as the reference's first strictly
// nearest does. The image is an opening (intensity 0) 10 px wide in an
// open background (1) with its control point on the opening's center
// line, at a pixel center in y and on an 8 nm pitch, so every sample of a
// mirrored pair of positions comes out with the same bits and the
// bisections of mirrored intervals end at exactly opposite crossings.
// Flipping the normal mirrors the search, so both normals report the same
// negative EPE only if each found the tie. Even and odd searches cover a
// grid through d = 0 and one straddling it.
func TestMeasureEPETieGoesNegative(t *testing.T) {
	im := &litho.Image{Pixel: 8, Nx: 10, Ny: 3, Data: make([]float64, 30), Background: 1}
	for _, search := range []geom.Coord{60, 61} {
		for _, th := range []float64{0.3, 0.5, 0.7} {
			var epes [2]float64
			for i, n := range []geom.Point{geom.Pt(1, 0), geom.Pt(-1, 0)} {
				f := &Fragment{Control: geom.Pt(40, 12), Normal: n}
				epe, found := MeasureEPE(im, f, th, litho.ClearField, search)
				want, _ := measureEPERef(im, f, th, litho.ClearField, search)
				if !found || math.Float64bits(epe) != math.Float64bits(want) {
					t.Fatalf("search %d, threshold %v, normal %v: EPE %v (found %v), reference %v", search, th, n, epe, found, want)
				}
				epes[i] = epe
			}
			if epes[0] >= 0 || epes[0] != epes[1] {
				t.Fatalf("search %d, threshold %v: EPE %v along +x and %v along −x, want the same negative crossing", search, th, epes[0], epes[1])
			}
		}
	}
}

// Clearance returns the reference's distances on random regions: up to 40
// rectangles, overlapping and empty ones included, plus the
// decompositions of random context polygons with jogs, probed from random
// points along all four normals at RuleBased's 1500 nm range, the OPC
// mask-rule check's 160 nm, and ranges that are not whole steps, under
// one step, zero or negative.
func TestClearanceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	hits := 0
	for trial := 0; trial < 3000; trial++ {
		var all geom.Region
		for k := rng.Intn(41); k > 0; k-- {
			x0, y0 := geom.Coord(rng.Intn(3000)-1500), geom.Coord(rng.Intn(3000)-1500)
			all = append(all, geom.R(x0, y0, x0+geom.Coord(rng.Intn(400)-20), y0+geom.Coord(rng.Intn(400)-20)))
		}
		for k := rng.Intn(3); k > 0; k-- {
			x0, y0 := geom.Coord(rng.Intn(2000)-1000), geom.Coord(rng.Intn(2000)-1000)
			w, h := geom.Coord(50+rng.Intn(300)), geom.Coord(300+rng.Intn(900))
			jog := geom.Coord(10 + rng.Intn(40))
			context := geom.Polygon{
				geom.Pt(x0, y0), geom.Pt(x0+w, y0), geom.Pt(x0+w, y0+h/2),
				geom.Pt(x0+w+jog, y0+h/2), geom.Pt(x0+w+jog, y0+h), geom.Pt(x0, y0+h),
			}
			all = append(all, geom.RegionFromPolygon(context)...)
		}
		f := &Fragment{
			Control: geom.Pt(geom.Coord(rng.Intn(3000)-1500), geom.Coord(rng.Intn(3000)-1500)),
			Normal:  normals[rng.Intn(4)],
		}
		for _, maxNM := range []geom.Coord{1500, minSpaceNM + 20, 1234, 9, 0, -10} {
			got, want := Clearance(f, all, maxNM), clearanceRef(f, all, maxNM)
			if got != want {
				t.Fatalf("trial %d, range %d: Clearance = %d, reference %d", trial, maxNM, got, want)
			}
			if got < maxNM {
				hits++
			}
		}
	}
	if hits < 1000 {
		t.Fatalf("only %d probes hit a rectangle; the random regions exercise too few", hits)
	}
}
