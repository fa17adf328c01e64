package flow

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"postopc/internal/litho"
	"postopc/internal/netlist"
	"postopc/internal/pdk"
	"postopc/internal/place"
	"postopc/internal/sta"
	"postopc/internal/timinglib"
)

var cachedFlow *Flow

func fastFlow(t *testing.T) *Flow {
	t.Helper()
	if cachedFlow == nil {
		f, err := New(pdk.N90(), Config{Fast: true})
		if err != nil {
			t.Fatal(err)
		}
		cachedFlow = f
	}
	return cachedFlow
}

// cachedRun executes the full pipeline once (it is the expensive fixture
// shared by several tests).
var cachedRunResult *RunResult

func fullRun(t *testing.T) *RunResult {
	t.Helper()
	if cachedRunResult == nil {
		f := fastFlow(t)
		res, err := f.Run(netlist.RippleCarryAdder(2), RunOptions{
			STA:     sta.DefaultConfig(1500),
			Mode:    OPCModel,
			Corners: VariationCorners(f.PDK.Window),
		})
		if err != nil {
			t.Fatal(err)
		}
		cachedRunResult = res
	}
	return cachedRunResult
}

func TestGaussianThresholdCalibrated(t *testing.T) {
	f := fastFlow(t)
	stored := f.PDK.GaussianLitho().Threshold
	g, err := f.PDK.FastModel()
	if err != nil {
		t.Fatal(err)
	}
	th, err := litho.CalibrateThreshold(g, f.PDK.Rules.GateLengthNM, f.PDK.Rules.PolyPitchNM)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(th-stored) > 0.01 {
		t.Fatalf("stored Gaussian threshold %.4f drifted from calibration %.4f", stored, th)
	}
}

func TestExtractInstanceNominal(t *testing.T) {
	f := fastFlow(t)
	n := netlist.InverterChain(3)
	pl, err := f.Place(n, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inst := pl.Chip.FindInstance("u1")
	ext, err := f.ExtractInstance(pl.Chip, inst, ExtractOptions{Mode: OPCModel})
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Sites) != 2 { // INV: one NMOS + one PMOS
		t.Fatalf("sites = %d", len(ext.Sites))
	}
	for _, s := range ext.Sites {
		if len(s.PerCorner) != 1 {
			t.Fatalf("corners = %d", len(s.PerCorner))
		}
		cc := s.PerCorner[0]
		if !cc.Printed {
			t.Fatalf("site %s did not print", s.LocalName)
		}
		if cc.MeanCD < 82 || cc.MeanCD > 100 {
			t.Fatalf("site %s printed CD %.1f far from drawn 90", s.LocalName, cc.MeanCD)
		}
		if cc.DelayEL <= 0 || cc.LeakEL <= 0 {
			t.Fatalf("bad ELs: %+v", cc)
		}
		// Leakage EL weights short slices more.
		if cc.LeakEL > cc.DelayEL+0.5 {
			t.Fatalf("leak EL %.2f above delay EL %.2f", cc.LeakEL, cc.DelayEL)
		}
		// Some across-gate nonuniformity must exist (line ends, neighbours).
		if cc.Nonuniformity <= 0 {
			t.Fatalf("zero nonuniformity is implausible")
		}
	}
	if ext.EPE.Count == 0 {
		t.Fatal("OPC EPE report empty")
	}
}

func TestOPCModesChangeCD(t *testing.T) {
	f := fastFlow(t)
	n := netlist.InverterChain(3)
	pl, err := f.Place(n, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inst := pl.Chip.FindInstance("u1")
	mean := func(mode OPCMode) float64 {
		ext, err := f.ExtractInstance(pl.Chip, inst, ExtractOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, site := range ext.Sites {
			s += site.PerCorner[0].MeanCD
		}
		return s / float64(len(ext.Sites))
	}
	none := mean(OPCNone)
	model := mean(OPCModel)
	// The INV sits at a loose gate pitch, so uncorrected it prints several
	// nm off target; model OPC must pull it close to drawn.
	if math.Abs(none-90) > 7 {
		t.Fatalf("uncorrected CD implausible: none=%.2f", none)
	}
	if math.Abs(model-90) > 2.5 {
		t.Fatalf("model OPC missed target: model=%.2f", model)
	}
	if math.Abs(model-90) >= math.Abs(none-90) {
		t.Fatalf("OPC did not improve CD: none=%.2f model=%.2f", none, model)
	}
}

func TestRunPipeline(t *testing.T) {
	res := fullRun(t)
	if res.Drawn == nil || res.Annotated == nil {
		t.Fatal("missing STA results")
	}
	if len(res.Extractions) != len(res.Netlist.Gates) {
		t.Fatalf("extractions = %d, want %d", len(res.Extractions), len(res.Netlist.Gates))
	}
	// The annotated analysis must differ from drawn (post-OPC CDs ≠ drawn)
	// but stay in the same ballpark at nominal.
	if res.Shift.MeanAbsShiftPS == 0 {
		t.Fatal("annotation had no effect at all")
	}
	if math.Abs(res.Shift.WNSShiftPct) > 30 {
		t.Fatalf("nominal post-OPC shift %.1f%% implausibly large", res.Shift.WNSShiftPct)
	}
	if res.Ranks.N != len(res.Drawn.Endpoints) {
		t.Fatalf("rank comparison covered %d endpoints", res.Ranks.N)
	}
}

// TestAnnotationsFallback checks that a corner index outside the extracted
// corners is an error naming the index and the corner count, and a panic
// through Annotations, where it used to time every site at drawn length.
func TestAnnotationsFallback(t *testing.T) {
	res := fullRun(t)
	ann, err := AnnotationsAt(res.Extractions, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ann) != len(res.Extractions) {
		t.Fatalf("annotations = %d", len(ann))
	}
	corners := len(VariationCorners(fastFlow(t).PDK.Window))
	for _, ci := range []int{corners, 99, -1} {
		ann, err := AnnotationsAt(res.Extractions, ci)
		want := fmt.Sprintf("corner index %d out of range", ci)
		if err == nil || ann != nil || !strings.Contains(err.Error(), want) ||
			!strings.Contains(err.Error(), fmt.Sprintf("extracted at %d corners", corners)) {
			t.Fatalf("corner %d: got %d annotations and error %v, want %q naming %d extracted corners", ci, len(ann), err, want, corners)
		}
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Annotations at corner 99 returned instead of panicking")
		}
	}()
	Annotations(res.Extractions, 99)
}

func TestTagTopK(t *testing.T) {
	f := fastFlow(t)
	res, err := f.Run(netlist.RippleCarryAdder(2), RunOptions{
		STA:     sta.DefaultConfig(1500),
		Mode:    OPCNone,
		TagTopK: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tagged) == 0 || len(res.Tagged) >= len(res.Netlist.Gates) {
		t.Fatalf("tagged %d of %d gates", len(res.Tagged), len(res.Netlist.Gates))
	}
	if len(res.Extractions) != len(res.Tagged) {
		t.Fatalf("extracted %d, tagged %d", len(res.Extractions), len(res.Tagged))
	}
}

func TestVariationModelAndMonteCarlo(t *testing.T) {
	res := fullRun(t)
	f := fastFlow(t)
	vm, err := BuildVariationModel(res.Extractions, f.PDK.Window, f.PDK.Device.SigmaLRandomNM)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sta.DefaultConfig(1500)
	mc, err := vm.MonteCarlo(res.Graph, cfg, 60, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.WNS) != 60 || mc.StdWNS <= 0 {
		t.Fatalf("MC stats: %+v", mc)
	}
	// Worst-case corner must be at least as pessimistic as every MC draw.
	slow, err := res.Graph.Analyze(cfg, vm.SlowCorner(3))
	if err != nil {
		t.Fatal(err)
	}
	if slow.WNS > mc.WNS[0] {
		t.Fatalf("slow corner WNS %.1f less pessimistic than MC min %.1f", slow.WNS, mc.WNS[0])
	}
	// Fast corner bounds from the other side.
	fast, err := res.Graph.Analyze(cfg, vm.FastCorner(3))
	if err != nil {
		t.Fatal(err)
	}
	if fast.WNS < mc.WNS[len(mc.WNS)-1] {
		t.Fatalf("fast corner WNS %.1f below MC max %.1f", fast.WNS, mc.WNS[len(mc.WNS)-1])
	}
	// Determinism.
	mc2, err := vm.MonteCarlo(res.Graph, cfg, 60, 42)
	if err != nil {
		t.Fatal(err)
	}
	if mc.MeanWNS != mc2.MeanWNS {
		t.Fatal("MC not reproducible for equal seeds")
	}
	// Percentile accessor.
	if p := mc.Percentile(0); p != mc.WNS[0] {
		t.Fatalf("p0 = %g", p)
	}
	if p := mc.Percentile(1); p != mc.WNS[len(mc.WNS)-1] {
		t.Fatalf("p100 = %g", p)
	}
}

func TestVariationAnnotationsFocusEffect(t *testing.T) {
	res := fullRun(t)
	f := fastFlow(t)
	vm, err := BuildVariationModel(res.Extractions, f.PDK.Window, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sta.DefaultConfig(1500)
	nom, err := res.Graph.Analyze(cfg, vm.Annotations(0, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	defoc, err := res.Graph.Analyze(cfg, vm.Annotations(f.PDK.Window.DefocusNM, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	// Defocus thins dense gates -> shorter channels -> FASTER timing but
	// much leakier. Check both directions.
	if defoc.WNS <= nom.WNS {
		t.Fatalf("defocus should speed up the N90 dense gates: %.1f vs %.1f", defoc.WNS, nom.WNS)
	}
	if defoc.LeakNW <= nom.LeakNW {
		t.Fatalf("defocus must raise leakage: %.1f vs %.1f", defoc.LeakNW, nom.LeakNW)
	}
}

func TestGuardbandDefaultAnnotator(t *testing.T) {
	res := fullRun(t)
	cfg := sta.DefaultConfig(1500)
	drawn, err := res.Graph.Analyze(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	guard, err := res.Graph.Analyze(cfg, sta.Annotations{"*": guardband8})
	if err != nil {
		t.Fatal(err)
	}
	if guard.WNS >= drawn.WNS {
		t.Fatalf("guardband must slow the design: %.1f vs %.1f", guard.WNS, drawn.WNS)
	}
}

// guardband8 is an 8nm blanket slow-corner guardband.
var guardband8 = timinglib.Guardband(8)
