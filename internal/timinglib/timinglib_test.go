package timinglib

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"postopc/internal/geom"
	"postopc/internal/layout"
	"postopc/internal/pdk"
	"postopc/internal/stdcell"
)

var (
	testLib *stdcell.Library
	testTL  *Lib
)

func env(t *testing.T) (*stdcell.Library, *Lib) {
	t.Helper()
	if testLib == nil {
		l, err := stdcell.NewLibrary(pdk.N90())
		if err != nil {
			t.Fatal(err)
		}
		testLib = l
		testTL = New(l.PDK)
	}
	return testLib, testTL
}

func TestEvaluateInverter(t *testing.T) {
	lib, tl := env(t)
	inv := lib.Cells["INV_X1"]
	ev, err := tl.Evaluate(inv, nil)
	if err != nil {
		t.Fatal(err)
	}
	cin := tl.Cin(inv)["A"]
	if cin <= 0 {
		t.Fatal("input cap must be positive")
	}
	// X1 inverter input cap ~ (0.52+0.78)µm × 1.6fF/µm ≈ 2.1fF.
	if cin < 1 || cin > 4 {
		t.Fatalf("Cin = %.2f fF implausible", cin)
	}
	if ev.IFallUA <= 0 || ev.IRiseUA <= 0 {
		t.Fatal("drive currents must be positive")
	}
	// NMOS per-µm out-drives PMOS but Wp > Wn; the X1 ratio keeps fall
	// faster or equal.
	if ev.IFallUA < ev.IRiseUA*0.8 {
		t.Fatalf("drive balance off: fall %.1f rise %.1f", ev.IFallUA, ev.IRiseUA)
	}
	if ev.LeakNW <= 0 {
		t.Fatal("leakage must be positive")
	}
}

func TestEvaluateStackDerating(t *testing.T) {
	lib, tl := env(t)
	evInv, _ := tl.Evaluate(lib.Cells["INV_X1"], nil)
	evNand, _ := tl.Evaluate(lib.Cells["NAND2_X1"], nil)
	// NAND2's pull-down is a 2-stack: per-strip NMOS width is larger but
	// effective fall drive per total width must reflect the /2 derating.
	// Directly: NAND2 fall current / its total NMOS width should be about
	// half the inverter's ratio.
	wInv := float64(totalW(lib.Cells["INV_X1"], layout.NMOS))
	wNand := float64(totalW(lib.Cells["NAND2_X1"], layout.NMOS))
	rInv := evInv.IFallUA / wInv
	rNand := evNand.IFallUA / wNand
	if math.Abs(rNand-rInv/2) > 0.05*rInv {
		t.Fatalf("stack derating: inv %.3f nand %.3f (want ratio 2)", rInv, rNand)
	}
}

func totalW(c *stdcell.Info, k layout.DeviceKind) (w int64) {
	for _, g := range c.Layout.Gates {
		if g.Kind == k {
			w += int64(g.W())
		}
	}
	return
}

func TestEvaluateFillRejected(t *testing.T) {
	lib, tl := env(t)
	if _, err := tl.Evaluate(lib.Cells["FILL_X1"], nil); err == nil {
		t.Fatal("fill cells have no timing")
	}
}

func TestArcDelayMonotoneInLoad(t *testing.T) {
	lib, tl := env(t)
	ev, _ := tl.Evaluate(lib.Cells["INV_X1"], nil)
	d1, s1 := tl.ArcDelay(ev, true, 2, 20)
	d2, s2 := tl.ArcDelay(ev, true, 8, 20)
	if !(d2 > d1 && s2 > s1) {
		t.Fatalf("load sensitivity: %g/%g -> %g/%g", d1, s1, d2, s2)
	}
	// Slew sensitivity.
	d3, _ := tl.ArcDelay(ev, true, 2, 80)
	if !(d3 > d1) {
		t.Fatal("input slew must add delay")
	}
}

func TestArcDelayFO4Plausible(t *testing.T) {
	lib, tl := env(t)
	ev, _ := tl.Evaluate(lib.Cells["INV_X1"], nil)
	fo4 := 4 * tl.Cin(lib.Cells["INV_X1"])["A"]
	d, _ := tl.ArcDelay(ev, false, fo4, 30)
	// 90nm FO4 is ~25-45ps; our synthetic kit should land in the same
	// decade.
	if d < 8 || d > 120 {
		t.Fatalf("FO4 delay = %.1fps implausible", d)
	}
}

func TestAnnotationChangesDriveAndLeak(t *testing.T) {
	lib, tl := env(t)
	inv := lib.Cells["INV_X1"]
	nom, _ := tl.Evaluate(inv, nil)
	short, _ := tl.Evaluate(inv, Uniform(80))
	long, _ := tl.Evaluate(inv, Uniform(100))
	if !(short.IFallUA > nom.IFallUA && nom.IFallUA > long.IFallUA) {
		t.Fatal("drive vs L ordering")
	}
	if !(short.LeakNW > nom.LeakNW && nom.LeakNW > long.LeakNW) {
		t.Fatal("leak vs L ordering")
	}
}

func TestZeroDriveGuard(t *testing.T) {
	_, tl := env(t)
	d, s := tl.ArcDelay(Eval{}, true, 5, 20)
	if d < 1e8 || s < 1e8 {
		t.Fatal("zero-drive arc should return a huge delay, not crash")
	}
}

func TestBuildTablesMatchesAnalytic(t *testing.T) {
	lib, tl := env(t)
	ev, _ := tl.Evaluate(lib.Cells["NAND2_X1"], nil)
	slews := []float64{5, 20, 60, 150}
	loads := []float64{1, 4, 12, 30}
	tabs, err := tl.BuildTables(ev, slews, loads)
	if err != nil {
		t.Fatal(err)
	}
	// On-grid lookups are exact.
	dGrid, _ := tl.ArcDelay(ev, true, 12, 60)
	if got := tabs.DelayRise.Lookup(60, 12); math.Abs(got-dGrid) > 1e-9 {
		t.Fatalf("on-grid lookup %g vs %g", got, dGrid)
	}
	// Off-grid interpolation tracks the analytic model closely (the model
	// is affine in load and slew, so bilinear interpolation is exact).
	dOff, _ := tl.ArcDelay(ev, true, 7.3, 41)
	if got := tabs.DelayRise.Lookup(41, 7.3); math.Abs(got-dOff) > 1e-6 {
		t.Fatalf("off-grid lookup %g vs %g", got, dOff)
	}
	// Clamped extrapolation doesn't explode.
	if got := tabs.SlewFall.Lookup(1e6, 1e6); math.IsNaN(got) || got <= 0 {
		t.Fatalf("clamped lookup = %g", got)
	}
}

func TestBuildTablesValidation(t *testing.T) {
	lib, tl := env(t)
	ev, _ := tl.Evaluate(lib.Cells["INV_X1"], nil)
	if _, err := tl.BuildTables(ev, []float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("1-point slew grid accepted")
	}
	if _, err := tl.BuildTables(ev, []float64{2, 1}, []float64{1, 2}); err == nil {
		t.Fatal("descending grid accepted")
	}
}

func TestDrawnAnnotator(t *testing.T) {
	site := layout.GateSite{Kind: layout.NMOS, Channel: geom.R(0, 0, 90, 520)}
	l := Drawn(site)
	if l.DelayL != 90 || l.LeakL != 90 {
		t.Fatalf("drawn lengths = %+v", l)
	}
}

// evalBitsEqual compares two Evals bit for bit in every field.
func evalBitsEqual(a, b Eval) bool {
	bits := func(e Eval) [5]uint64 {
		return [5]uint64{
			math.Float64bits(e.IRiseUA), math.Float64bits(e.IFallUA),
			math.Float64bits(e.RcRiseOhm), math.Float64bits(e.RcFallOhm),
			math.Float64bits(e.LeakNW),
		}
	}
	return bits(a) == bits(b)
}

// TestEvaluateNilIsDrawn checks the per-cell drawn Eval: on a fresh Lib,
// where the nil evaluation computes it, and on a warmed one, where it is
// returned from the cache, Evaluate(c, nil) equals Evaluate(c, Drawn) bit
// for bit for every timed cell. Fill cells still have no timing.
func TestEvaluateNilIsDrawn(t *testing.T) {
	lib, _ := env(t)
	fresh, warmed := New(lib.PDK), New(lib.PDK)
	for _, name := range lib.Names() {
		warmed.Cin(lib.Cells[name])
	}
	for _, name := range lib.Names() {
		c := lib.Cells[name]
		for _, tl := range []*Lib{fresh, warmed} {
			nilEv, err := tl.Evaluate(c, nil)
			if c.Kind == stdcell.Fill {
				if err == nil {
					t.Fatalf("fill cell %s evaluated", name)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			drawn, err := tl.Evaluate(c, Drawn)
			if err != nil {
				t.Fatal(err)
			}
			if !evalBitsEqual(nilEv, drawn) {
				t.Fatalf("cell %s: Evaluate(nil) %+v, Evaluate(Drawn) %+v", name, nilEv, drawn)
			}
		}
	}
}

// TestEvaluateConcurrentMatchesSerial evaluates every timed cell from
// several goroutines at once on a fresh Lib, so they race to fill the
// per-cell view (Cin map and drawn Eval), and compares each result with a
// serial evaluation on another Lib. Every caller must get the one shared
// Cin map of a cell through Lib.Cin. Run under -race (make race) to check
// the sharing itself.
func TestEvaluateConcurrentMatchesSerial(t *testing.T) {
	lib, _ := env(t)
	var cells []*stdcell.Info
	for _, name := range lib.Names() {
		if c := lib.Cells[name]; c.Kind != stdcell.Fill {
			cells = append(cells, c)
		}
	}
	anns := []Annotator{nil, Uniform(84), Guardband(6)}
	serial := New(lib.PDK)
	want := make([][]Eval, len(cells))
	wantCin := make([]map[string]float64, len(cells))
	for i, c := range cells {
		for _, ann := range anns {
			ev, err := serial.Evaluate(c, ann)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], ev)
		}
		wantCin[i] = serial.Cin(c)
	}

	tl := New(lib.PDK)
	const workers = 4
	got := make([][][]Eval, workers)
	gotCin := make([][]map[string]float64, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([][]Eval, len(cells))
			gotCin[w] = make([]map[string]float64, len(cells))
			// Each worker walks the cells from a different start, and
			// odd workers ask for Cin before evaluating.
			for k := range cells {
				i := (k + w*len(cells)/workers) % len(cells)
				if w%2 == 1 {
					gotCin[w][i] = tl.Cin(cells[i])
				}
				for _, ann := range anns {
					ev, err := tl.Evaluate(cells[i], ann)
					if err != nil {
						t.Error(err)
						return
					}
					got[w][i] = append(got[w][i], ev)
				}
				if w%2 == 0 {
					gotCin[w][i] = tl.Cin(cells[i])
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := range got {
		for i, c := range cells {
			if !reflect.DeepEqual(got[w][i], want[i]) {
				t.Fatalf("worker %d, cell %s: concurrent %+v, serial %+v", w, c.Name, got[w][i], want[i])
			}
			if !reflect.DeepEqual(gotCin[w][i], wantCin[i]) {
				t.Fatalf("worker %d, cell %s: concurrent Cin %v, serial %v", w, c.Name, gotCin[w][i], wantCin[i])
			}
			if reflect.ValueOf(gotCin[w][i]).Pointer() != reflect.ValueOf(gotCin[0][i]).Pointer() {
				t.Fatalf("worker %d, cell %s: got its own Cin map", w, c.Name)
			}
		}
	}
}
