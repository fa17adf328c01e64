package opc

import (
	"math"
	"testing"

	"postopc/internal/geom"
	"postopc/internal/litho"
)

func testRecipe() litho.Recipe {
	return litho.Recipe{
		WavelengthNM: 193,
		NA:           0.85,
		SigmaOuter:   0.7,
		SourceRings:  3,
		Threshold:    0.30,
		PixelNM:      10,
		GuardNM:      300,
		Polarity:     litho.ClearField,
	}
}

func gaussModel(t *testing.T) litho.Model {
	t.Helper()
	m, err := litho.NewGaussian(testRecipe())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFragmentizeRect(t *testing.T) {
	pg := geom.R(0, 0, 400, 100).Polygon()
	fp, err := Fragmentize(pg, FragmentOptions{LengthNM: 100, CornerNM: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Long edges (400): corner 50 + 3x100 interior + corner 50 = 5 frags.
	// Short edges (100): 50+50 -> single fragment (length == 2*corner).
	if got := len(fp.Frags); got != 2*5+2*1 {
		t.Fatalf("fragments = %d, want 12", got)
	}
	// All control points must lie on the drawn boundary bbox.
	bb := pg.BBox()
	for _, f := range fp.Frags {
		onEdge := f.Control.X == bb.X0 || f.Control.X == bb.X1 ||
			f.Control.Y == bb.Y0 || f.Control.Y == bb.Y1
		if !onEdge {
			t.Fatalf("control point %v not on boundary", f.Control)
		}
		// Outward normal points away from the rect center.
		in := f.Control.Add(f.Normal.Scale(-5))
		out := f.Control.Add(f.Normal.Scale(5))
		if !bb.Contains(in) || (out.X > bb.X0 && out.X < bb.X1 && out.Y > bb.Y0 && out.Y < bb.Y1) {
			t.Fatalf("normal %v at %v not outward", f.Normal, f.Control)
		}
	}
}

func TestFragmentizeRejectsNonRectilinear(t *testing.T) {
	tri := geom.Polygon{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 7)}
	if _, err := Fragmentize(tri, DefaultFragmentOptions()); err == nil {
		t.Fatal("expected error")
	}
}

func TestFragmentizeCWInput(t *testing.T) {
	pg := geom.R(0, 0, 200, 100).Polygon().Reverse() // clockwise
	fp, err := Fragmentize(pg, DefaultFragmentOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !fp.Drawn.IsCCW() {
		t.Fatal("drawn polygon must be normalized to CCW")
	}
}

func TestCorrectedIdentity(t *testing.T) {
	pg := geom.R(0, 0, 400, 100).Polygon()
	fp, _ := Fragmentize(pg, FragmentOptions{LengthNM: 100, CornerNM: 50})
	got := fp.Corrected()
	if got.Area() != pg.Area() {
		t.Fatalf("zero-bias area = %d, want %d", got.Area(), pg.Area())
	}
	if r, ok := got.AsRect(); !ok || r != geom.R(0, 0, 400, 100) {
		t.Fatalf("zero-bias polygon = %v", got)
	}
}

func TestCorrectedUniformBias(t *testing.T) {
	pg := geom.R(0, 0, 400, 100).Polygon()
	fp, _ := Fragmentize(pg, FragmentOptions{LengthNM: 100, CornerNM: 50})
	for _, f := range fp.Frags {
		f.Bias = 10
	}
	got := fp.Corrected()
	want := geom.R(-10, -10, 410, 110)
	r, ok := got.AsRect()
	if !ok || r != want {
		t.Fatalf("uniform-bias polygon = %v, want %v", got, want)
	}
}

func TestCorrectedSingleJog(t *testing.T) {
	pg := geom.R(0, 0, 400, 100).Polygon()
	fp, _ := Fragmentize(pg, FragmentOptions{LengthNM: 100, CornerNM: 50})
	// Push exactly one interior fragment of the bottom edge outward.
	var target *Fragment
	for _, f := range fp.Frags {
		if f.Normal == geom.Pt(0, -1) && f.A.X == 150 {
			target = f
			break
		}
	}
	if target == nil {
		t.Fatal("no interior bottom fragment found")
	}
	target.Bias = 8
	got := fp.Corrected()
	fragLen := target.A.Manhattan(target.B)
	wantArea := pg.Area() + int64(fragLen)*8
	if got.Area() != wantArea {
		t.Fatalf("jogged area = %d, want %d", got.Area(), wantArea)
	}
	if got.IsRectilinear() == false {
		t.Fatal("jogged polygon must stay rectilinear")
	}
}

func TestMeasureEPESynthetic(t *testing.T) {
	// Build an image whose printed feature (I<0.3) is x in [100, 190] on a
	// [0,300]x[0,100] window.
	mask := geom.NewRaster(geom.R(0, 0, 300, 100), 5)
	im := litho.NewImage(mask)
	for iy := 0; iy < im.Ny; iy++ {
		for ix := 0; ix < im.Nx; ix++ {
			x, _ := mask.PixelCenter(ix, iy)
			v := 1.0
			if x >= 100 && x <= 190 {
				v = 0.1
			}
			im.Data[iy*im.Nx+ix] = v
		}
	}
	// Fragment with drawn edge at x=200 (outward normal +x): printed edge
	// is at ~190, i.e. EPE ≈ -10 (printed inside drawn).
	f := &Fragment{Control: geom.Pt(200, 50), Normal: geom.Pt(1, 0)}
	epe, found := MeasureEPE(im, f, 0.3, litho.ClearField, 60)
	if math.Abs(epe-(-10)) > 4 || !found {
		t.Fatalf("EPE = %g (found %v), want ~-10 found", epe, found)
	}
	// Drawn edge at x=180: printed edge at 190 -> EPE +10.
	f = &Fragment{Control: geom.Pt(180, 50), Normal: geom.Pt(1, 0)}
	epe, found = MeasureEPE(im, f, 0.3, litho.ClearField, 60)
	if math.Abs(epe-10) > 4 || !found {
		t.Fatalf("EPE = %g (found %v), want ~+10 found", epe, found)
	}
	// Far outside any feature: saturates at -search, with no edge found.
	f = &Fragment{Control: geom.Pt(20, 50), Normal: geom.Pt(-1, 0)}
	epe, found = MeasureEPE(im, f, 0.3, litho.ClearField, 15)
	if epe != -15 || found {
		t.Fatalf("lost-feature EPE = %g (found %v), want -15 not found", epe, found)
	}
	// Inside the feature with no edge in range: saturates at +search.
	f = &Fragment{Control: geom.Pt(145, 50), Normal: geom.Pt(1, 0)}
	epe, found = MeasureEPE(im, f, 0.3, litho.ClearField, 15)
	if epe != 15 || found {
		t.Fatalf("merged-feature EPE = %g (found %v), want +15 not found", epe, found)
	}
}

func TestModelBasedReducesEPE(t *testing.T) {
	m := gaussModel(t)
	// A gate-like line with line ends, isolated. (130nm: comfortably
	// resolvable by the Gaussian fast model at threshold 0.3.)
	drawn := []geom.Polygon{geom.R(-65, -400, 65, 400).Polygon()}
	// Baseline: residual EPE with no correction.
	fp, _ := Fragmentize(drawn[0], DefaultFragmentOptions())
	epes0, st0, err := Verify(m, drawn, nil, []*FragmentedPolygon{fp}, litho.Nominal, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(epes0) == 0 {
		t.Fatal("no EPE samples")
	}
	res, err := ModelBased(m, drawn, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st1 := SummarizeEPE(res.FinalEPE, 5)
	if st1.MaxAbs >= st0.MaxAbs {
		t.Fatalf("OPC did not improve max EPE: %.2f -> %.2f", st0.MaxAbs, st1.MaxAbs)
	}
	// Gate-region fragments (away from the line ends, where pullback is
	// physically bias-limited) must converge tightly — these are the edges
	// that set the transistor CD.
	fp2 := res.Fragmented[0]
	for i, f := range fp2.Frags {
		if f.Normal.X != 0 && f.Control.Y > -300 && f.Control.Y < 300 {
			if e := math.Abs(res.FinalEPE[i]); e > 3.0 {
				t.Fatalf("gate-edge fragment at %v residual EPE %.2fnm", f.Control, e)
			}
		}
	}
	if res.Sims < 2 || res.Iterations < 1 {
		t.Fatalf("suspicious run stats: %+v", res)
	}
}

func TestModelBasedWithContext(t *testing.T) {
	m := gaussModel(t)
	// Dense context: two uncorrected neighbours flanking the target.
	drawn := []geom.Polygon{geom.R(-65, -400, 65, 400).Polygon()}
	context := []geom.Polygon{
		geom.R(-65-320, -400, 65-320, 400).Polygon(),
		geom.R(-65+320, -400, 65+320, 400).Polygon(),
	}
	res, err := ModelBased(m, drawn, context, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fp := res.Fragmented[0]
	for i, f := range fp.Frags {
		if f.Normal.X != 0 && f.Control.Y > -300 && f.Control.Y < 300 {
			if e := math.Abs(res.FinalEPE[i]); e > 4.0 {
				t.Fatalf("dense gate-edge fragment at %v residual EPE %.2fnm", f.Control, e)
			}
		}
	}
	// Corrected polygon must not have merged with the neighbours:
	// x extent must stay clear of the context lines.
	bb := res.Polygons[0].BBox()
	if bb.X0 <= -320+65 || bb.X1 >= 320-65 {
		t.Fatalf("corrected polygon bled into context: %v", bb)
	}
}

func TestRuleTableBias(t *testing.T) {
	rt := &RuleTable{
		SpacesNM: []geom.Coord{200, 400, 800},
		BiasNM:   []geom.Coord{2, 6, 12},
	}
	cases := []struct {
		s    geom.Coord
		want geom.Coord
	}{
		{100, 2}, {200, 2}, {300, 4}, {400, 6}, {600, 9}, {800, 12}, {2000, 12},
	}
	for _, c := range cases {
		if got := rt.Bias(c.s); got != c.want {
			t.Errorf("Bias(%d) = %d, want %d", c.s, got, c.want)
		}
	}
	empty := &RuleTable{}
	if empty.Bias(100) != 0 {
		t.Fatal("empty table must bias 0")
	}
}

func TestBuildRuleTableAndApply(t *testing.T) {
	m := gaussModel(t)
	rt, err := BuildRuleTable(m, 130, []geom.Coord{200, 400, 900})
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.SpacesNM) != 3 {
		t.Fatalf("table size = %d", len(rt.SpacesNM))
	}
	// Rule OPC on an isolated line must beat no OPC on printed CD error.
	drawn := []geom.Polygon{geom.R(-65, -500, 65, 500).Polygon()}
	context := geom.RegionFromPolygon(drawn[0])
	corrected, err := RuleBased(drawn, context, rt, DefaultFragmentOptions(), 1200)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Recipe()
	measure := func(polys []geom.Polygon) float64 {
		mask := litho.RasterizePolygons(polys, r.PixelNM, r.GuardNM)
		im, err := m.Aerial(mask, litho.Nominal)
		if err != nil {
			t.Fatal(err)
		}
		res := im.MeasureCD(litho.AxisX, 0, -200, 200, 0, r.Threshold, r.Polarity)
		if !res.OK {
			t.Fatal("line did not print")
		}
		return res.CD
	}
	cd0 := measure(drawn)
	cd1 := measure(corrected)
	if math.Abs(cd1-130) >= math.Abs(cd0-130) {
		t.Fatalf("rule OPC did not improve CD: %.1f -> %.1f (target 130)", cd0, cd1)
	}
}

func TestClearance(t *testing.T) {
	all := geom.RegionFromRects(geom.R(0, 0, 90, 800), geom.R(290, 0, 380, 800))
	f := &Fragment{Control: geom.Pt(90, 400), Normal: geom.Pt(1, 0)}
	if got := Clearance(f, all, 1000); got != 200 {
		t.Fatalf("clearance = %d, want 200", got)
	}
	// No neighbour: saturates at max.
	f = &Fragment{Control: geom.Pt(0, 400), Normal: geom.Pt(-1, 0)}
	if got := Clearance(f, all, 500); got != 500 {
		t.Fatalf("open clearance = %d, want 500", got)
	}
}

func TestSummarizeEPEAndHistogram(t *testing.T) {
	epes := []float64{-2, -1, 0, 1, 2, 8}
	st := SummarizeEPE(epes, 5)
	if st.Count != 6 || st.Violations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if math.Abs(st.Mean-8.0/6) > 1e-9 || st.MaxAbs != 8 {
		t.Fatalf("stats = %+v", st)
	}
	if st.String() == "" {
		t.Fatal("empty String()")
	}
	h := NewHistogram(epes, -10, 10, 10)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != len(epes) {
		t.Fatalf("histogram total = %d", total)
	}
	// Out-of-range values clamp to edge bins.
	h = NewHistogram([]float64{-100, 100}, -10, 10, 4)
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Fatalf("clamping failed: %v", h.Counts)
	}
	if got := SummarizeEPE(nil, 1); got.Count != 0 {
		t.Fatal("empty EPE stats")
	}
}
