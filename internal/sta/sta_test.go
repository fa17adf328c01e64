package sta

import (
	"math"
	"strings"
	"testing"

	"postopc/internal/netlist"
	"postopc/internal/pdk"
	"postopc/internal/stdcell"
	"postopc/internal/timinglib"
)

var (
	testLib *stdcell.Library
	testTL  *timinglib.Lib
)

func env(t *testing.T) (*stdcell.Library, *timinglib.Lib) {
	t.Helper()
	if testLib == nil {
		l, err := stdcell.NewLibrary(pdk.N90())
		if err != nil {
			t.Fatal(err)
		}
		testLib = l
		testTL = timinglib.New(l.PDK)
	}
	return testLib, testTL
}

func analyze(t *testing.T, n *netlist.Netlist, cfg Config, ann Annotations) *Result {
	t.Helper()
	lib, tl := env(t)
	g, err := Build(n, lib, tl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Analyze(cfg, ann)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestInverterChainTiming(t *testing.T) {
	n := netlist.InverterChain(8)
	res := analyze(t, n, DefaultConfig(2000), nil)
	if len(res.Endpoints) != 1 {
		t.Fatalf("endpoints = %d", len(res.Endpoints))
	}
	ep := res.Endpoints[0]
	if ep.ArrivalPS <= 0 || ep.ArrivalPS > 1000 {
		t.Fatalf("chain arrival = %.1fps implausible", ep.ArrivalPS)
	}
	if math.Abs(ep.SlackPS-(2000-ep.ArrivalPS)) > 1e-9 {
		t.Fatalf("slack arithmetic: %+v", ep)
	}
	if res.WNS != ep.SlackPS {
		t.Fatal("WNS mismatch")
	}
	// The critical path passes through every inverter.
	if len(res.Paths) != 1 {
		t.Fatalf("paths = %d", len(res.Paths))
	}
	gates := res.Paths[0].Gates()
	if len(gates) != 8 {
		t.Fatalf("path gates = %v", gates)
	}
	// Arrivals along the path strictly increase.
	pts := res.Paths[0].Points
	for i := 1; i < len(pts); i++ {
		if pts[i].ArrivalPS <= pts[i-1].ArrivalPS {
			t.Fatalf("non-monotone arrivals at %d: %+v", i, pts)
		}
	}
	// Alternating senses through inverters.
	for i := 1; i < len(pts); i++ {
		if pts[i].Rise == pts[i-1].Rise {
			t.Fatalf("inverter chain must alternate rise/fall")
		}
	}
	if res.LeakNW <= 0 {
		t.Fatal("leakage must be positive")
	}
}

func TestChainLengthScalesDelay(t *testing.T) {
	a := analyze(t, netlist.InverterChain(4), DefaultConfig(5000), nil)
	b := analyze(t, netlist.InverterChain(12), DefaultConfig(5000), nil)
	ra := a.Endpoints[0].ArrivalPS
	rb := b.Endpoints[0].ArrivalPS
	if rb < 2.5*ra || rb > 3.5*ra {
		t.Fatalf("12-stage arrival %.1f vs 4-stage %.1f: want ~3x", rb, ra)
	}
}

func TestAnnotationShiftsTiming(t *testing.T) {
	n := netlist.InverterChain(8)
	base := analyze(t, n, DefaultConfig(2000), nil)
	// All gates at 80nm: faster (shorter channel = more drive) and
	// leakier.
	short := Annotations{}
	long := Annotations{}
	for _, g := range n.Gates {
		short[g.Name] = timinglib.Uniform(80)
		long[g.Name] = timinglib.Uniform(100)
	}
	fast := analyze(t, n, DefaultConfig(2000), short)
	slow := analyze(t, n, DefaultConfig(2000), long)
	if !(fast.WNS > base.WNS && base.WNS > slow.WNS) {
		t.Fatalf("slack ordering wrong: 80nm=%.1f drawn=%.1f 100nm=%.1f",
			fast.WNS, base.WNS, slow.WNS)
	}
	if !(fast.LeakNW > base.LeakNW && base.LeakNW > slow.LeakNW) {
		t.Fatalf("leakage ordering wrong: %.1f %.1f %.1f",
			fast.LeakNW, base.LeakNW, slow.LeakNW)
	}
}

func TestRippleCarryCriticalPath(t *testing.T) {
	n := netlist.RippleCarryAdder(8)
	res := analyze(t, n, DefaultConfig(3000), nil)
	// The carry-out (or the MSB sum) must be the most critical endpoint.
	worst := res.Endpoints[0].Name
	if !strings.Contains(worst, "n") && worst != n.Outputs[len(n.Outputs)-1] {
		t.Logf("worst endpoint: %s", worst)
	}
	// Its path must be much longer than the LSB sum's path.
	lsb := n.Outputs[0]
	lsbAT, ok := res.ArrivalOf(lsb)
	if !ok {
		t.Fatal("LSB arrival missing")
	}
	if res.Endpoints[0].ArrivalPS < 2*lsbAT {
		t.Fatalf("carry chain %.1f should dwarf LSB %.1f", res.Endpoints[0].ArrivalPS, lsbAT)
	}
}

func TestSequentialEndpoints(t *testing.T) {
	lib, _ := env(t)
	_ = lib
	// DFF -> INV -> DFF pipeline.
	n := &netlist.Netlist{Name: "pipe", Inputs: []string{"din", "clk"}}
	n.AddGate("f1", "DFF_X1", map[string]string{"D": "din", "CK": "clk", "Q": "q1"})
	n.AddGate("g1", "INV_X1", map[string]string{"A": "q1", "Y": "n1"})
	n.AddGate("f2", "DFF_X1", map[string]string{"D": "n1", "CK": "clk", "Q": "q2"})
	n.Outputs = []string{"q2"}
	res := analyze(t, n, DefaultConfig(1000), nil)
	// Endpoints: f1/D, f2/D and the PO q2.
	names := map[string]bool{}
	for _, ep := range res.Endpoints {
		names[ep.Name] = true
	}
	for _, want := range []string{"f1/D", "f2/D", "q2"} {
		if !names[want] {
			t.Fatalf("missing endpoint %s (have %v)", want, names)
		}
	}
	// f2/D arrival = clk->Q of f1 + inverter delay: strictly positive and
	// larger than f1/D (direct input).
	var f1d, f2d Endpoint
	for _, ep := range res.Endpoints {
		switch ep.Name {
		case "f1/D":
			f1d = ep
		case "f2/D":
			f2d = ep
		}
	}
	if !(f2d.ArrivalPS > f1d.ArrivalPS) {
		t.Fatalf("flop-to-flop path should be longer: %v vs %v", f2d, f1d)
	}
	// Required time at D includes setup.
	if f2d.RequiredPS != 1000-25 {
		t.Fatalf("required = %.1f", f2d.RequiredPS)
	}
}

func TestCombinationalLoopDetected(t *testing.T) {
	lib, tl := env(t)
	n := &netlist.Netlist{Name: "loop"}
	n.AddGate("g1", "INV_X1", map[string]string{"A": "b", "Y": "a"})
	n.AddGate("g2", "INV_X1", map[string]string{"A": "a", "Y": "b"})
	n.Outputs = []string{"a"}
	if _, err := Build(n, lib, tl); err == nil {
		t.Fatal("expected loop detection error")
	}
}

func TestNonUnateXorPropagatesBothSenses(t *testing.T) {
	n := &netlist.Netlist{Name: "x", Inputs: []string{"a", "b"}, Outputs: []string{"y"}}
	n.AddGate("g1", "XOR2_X1", map[string]string{"A": "a", "B": "b", "Y": "y"})
	res := analyze(t, n, DefaultConfig(1000), nil)
	ep := res.Endpoints[0]
	if ep.ArrivalPS <= 0 {
		t.Fatal("no arrival through XOR")
	}
}

func TestCriticalGatesTagging(t *testing.T) {
	n := netlist.RippleCarryAdder(4)
	cfg := DefaultConfig(3000)
	cfg.KPaths = 3
	res := analyze(t, n, cfg, nil)
	tags := res.CriticalGates(3)
	if len(tags) == 0 {
		t.Fatal("no critical gates tagged")
	}
	// All tagged names are real gates.
	for _, name := range tags {
		if n.FindGate(name) < 0 {
			t.Fatalf("ghost gate %s", name)
		}
	}
	// Requesting more paths than available clamps.
	if got := res.CriticalGates(100); len(got) < len(tags) {
		t.Fatal("clamped tagging lost gates")
	}
	// No paths requested, or a negative count, tags nothing.
	for _, k := range []int{0, -1, -100} {
		if got := res.CriticalGates(k); len(got) != 0 {
			t.Fatalf("CriticalGates(%d) = %v, want none", k, got)
		}
	}
}

func TestWireLoadsMissingNetFallsBack(t *testing.T) {
	n := netlist.InverterChain(8)
	cfg := DefaultConfig(2000)
	flat := analyze(t, n, cfg, nil) // nil map: flat CWireFF per gate sink

	// A non-nil map with no entries must not time every net at zero wire
	// cap — absent nets fall back to the same flat model, so an empty
	// map is bit-identical to a nil one.
	cfgEmpty := cfg
	cfgEmpty.WireLoads = map[string]float64{}
	empty := analyze(t, n, cfgEmpty, nil)
	if math.Float64bits(empty.WNS) != math.Float64bits(flat.WNS) ||
		math.Float64bits(empty.Endpoints[0].ArrivalPS) != math.Float64bits(flat.Endpoints[0].ArrivalPS) {
		t.Fatalf("empty WireLoads map diverges from nil: WNS %v vs %v", empty.WNS, flat.WNS)
	}

	// An explicit zero entry IS the way to declare a net wire-free: the
	// chain gets faster than the flat fallback.
	cfgZero := cfg
	cfgZero.WireLoads = map[string]float64{}
	for _, gt := range n.Gates {
		cfgZero.WireLoads[gt.Conn["Y"]] = 0
	}
	zero := analyze(t, n, cfgZero, nil)
	if !(zero.WNS > flat.WNS) {
		t.Fatalf("zero-wire chain should be faster: %v vs flat %v", zero.WNS, flat.WNS)
	}

	// A partial map mixes both: the supplied net uses its (heavier)
	// extraction, absent nets the flat fallback — so the chain lands
	// strictly slower than flat, far from the old all-zero behavior.
	heavy := 2 * testTL.P.CWireFF
	cfgHeavy := cfg
	cfgHeavy.WireLoads = map[string]float64{n.Gates[3].Conn["Y"]: heavy}
	part := analyze(t, n, cfgHeavy, nil)
	if !(part.WNS < flat.WNS && flat.WNS < zero.WNS) {
		t.Fatalf("partial map ordering: heavy-partial %v < flat %v < zero %v expected",
			part.WNS, flat.WNS, zero.WNS)
	}
}

func TestBacktraceTiedRiseFallArrival(t *testing.T) {
	// An endpoint whose rise and fall arrivals tie exactly must pick the
	// rise sense (atR >= atF) and backtrace through the rise
	// predecessor — deterministically, not by map luck. Real libraries
	// rarely produce exact ties, so drive finish() with a hand-made
	// arrival map on a real graph.
	lib, tl := env(t)
	n := &netlist.Netlist{Name: "tie", Inputs: []string{"a"}, Outputs: []string{"y"}}
	n.AddGate("g1", "INV_X1", map[string]string{"A": "a", "Y": "y"})
	g, err := Build(n, lib, tl)
	if err != nil {
		t.Fatal(err)
	}
	arr := make([]*arrival, len(g.netNames))
	arr[g.netIdx["a"]] = &arrival{fromNetR: -1, fromNetF: -1, valid: true}
	arr[g.netIdx["y"]] = &arrival{
		atR: 100, atF: 100, slewR: 20, slewF: 20,
		// Distinct predecessors per sense so the test observes which
		// one the backtrace followed.
		fromNetR: g.netIdx["a"], fromRiseR: false,
		fromNetF: g.netIdx["a"], fromRiseF: true,
		valid: true,
	}
	res := &Result{g: g, cfg: DefaultConfig(1000), arr: arr}
	if err := g.finish(res); err != nil {
		t.Fatal(err)
	}
	ep := res.Endpoints[0]
	if !ep.Rise || ep.ArrivalPS != 100 {
		t.Fatalf("tied arrival must resolve to rise: %+v", ep)
	}
	pts := res.Paths[0].Points
	if len(pts) != 2 || pts[1].Net != "y" || !pts[1].Rise {
		t.Fatalf("backtrace points: %+v", pts)
	}
	if pts[0].Net != "a" || pts[0].Rise {
		t.Fatalf("backtrace must follow the rise predecessor (fall at a): %+v", pts[0])
	}
}

func TestUnconstrainedEndpointsError(t *testing.T) {
	lib, tl := env(t)
	// A design whose only output hangs from an undriven... actually build
	// a gate driven only by a floating net is rejected by Connectivity;
	// instead test the no-endpoints error with an empty netlist.
	n := &netlist.Netlist{Name: "empty", Inputs: []string{"a"}}
	g, err := Build(n, lib, tl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Analyze(DefaultConfig(1000), nil); err == nil {
		t.Fatal("expected no-endpoints error")
	}
}
