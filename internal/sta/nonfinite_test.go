package sta

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"postopc/internal/layout"
	"postopc/internal/netlist"
	"postopc/internal/timinglib"
)

// A NaN or infinite length, contact resistance, clock or wire load must
// fail every analysis entry point with a named error. Without the checks,
// a NaN DelayL on the first critical gate of Datapath(4, 5, 1) drops that
// gate's arcs from the timing (a NaN arrival loses every max comparison):
// at a 2000 ps clock WNS moves from 1933.39 to 1940.92 ps, and Analyze
// returns no error.

// nonFiniteEntryPoints runs Analyze, AnalyzeIncremental (against a drawn
// baseline), MultiCorner (as the second corner, incremental and full) and
// MonteCarlo (as one sample of eight) under cfg and ann, and returns each
// one's error by name.
func nonFiniteEntryPoints(t *testing.T, g *Graph, good, cfg Config, ann Annotations) map[string]error {
	t.Helper()
	base, err := g.Analyze(good, nil)
	if err != nil {
		t.Fatal(err)
	}
	errs := map[string]error{}
	_, errs["Analyze"] = g.Analyze(cfg, ann)
	_, errs["AnalyzeIncremental"] = g.AnalyzeIncremental(cfg, ann, base)
	corners := []CornerSpec{{Name: "drawn"}, {Name: "bad", Ann: ann}}
	_, errs["MultiCorner"] = g.MultiCorner(cfg, corners, MultiCornerOptions{Workers: 1})
	_, errs["MultiCorner/full"] = g.MultiCorner(cfg, corners, MultiCornerOptions{Workers: 1, Full: true})
	_, _, errs["MonteCarlo"] = g.MonteCarlo(cfg, base, 8, shared(func(i int) Annotations {
		if i == 5 {
			return ann
		}
		return nil
	}), MonteCarloOptions{Workers: 2})
	return errs
}

func TestNonFiniteLengthRejected(t *testing.T) {
	n := netlist.Datapath(4, 5, 1)
	g := buildGraph(t, n)
	cfg := DefaultConfig(2000)
	drawn, err := g.Analyze(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	gate := drawn.CriticalGates(1)[0]
	for name, bad := range map[string]func(site layout.GateSite) timinglib.Lengths{
		"DelayL NaN": func(site layout.GateSite) timinglib.Lengths {
			ln := timinglib.Drawn(site)
			ln.DelayL = math.NaN()
			return ln
		},
		"LeakL +Inf": func(site layout.GateSite) timinglib.Lengths {
			ln := timinglib.Drawn(site)
			ln.LeakL = math.Inf(1)
			return ln
		},
		"RContactOhm -Inf": func(site layout.GateSite) timinglib.Lengths {
			ln := timinglib.Drawn(site)
			ln.RContactOhm = math.Inf(-1)
			return ln
		},
	} {
		ann := Annotations{gate: bad}
		for entry, err := range nonFiniteEntryPoints(t, g, cfg, cfg, ann) {
			if !errors.Is(err, timinglib.ErrNonFiniteLength) {
				t.Errorf("%s on %s: %s returned %v, want timinglib.ErrNonFiniteLength", name, gate, entry, err)
			}
		}
	}
}

func TestNonFiniteConfigRejected(t *testing.T) {
	n := netlist.Datapath(4, 5, 1)
	g := buildGraph(t, n)
	good := DefaultConfig(2000)
	nanClock := DefaultConfig(math.NaN())
	infClock := DefaultConfig(math.Inf(1))
	infWire := good
	infWire.WireLoads = map[string]float64{}
	for _, gt := range n.Gates {
		infWire.WireLoads[gt.Conn["Y"]] = 1
	}
	infWire.WireLoads[n.Gates[len(n.Gates)/2].Conn["Y"]] = math.Inf(1)
	nanWire := good
	nanWire.WireLoads = map[string]float64{n.Gates[0].Conn["Y"]: math.NaN()}
	for name, cfg := range map[string]Config{
		"ClockPS NaN":   nanClock,
		"ClockPS +Inf":  infClock,
		"WireLoads Inf": infWire,
		"WireLoads NaN": nanWire,
	} {
		for entry, err := range nonFiniteEntryPoints(t, g, good, cfg, nil) {
			if !errors.Is(err, ErrNonFiniteConfig) {
				t.Errorf("%s: %s returned %v, want ErrNonFiniteConfig", name, entry, err)
			}
		}
		if _, err := g.AnalyzeSSTA(cfg, DefaultSSTAParams(), zeroArcs{}); !errors.Is(err, ErrNonFiniteConfig) {
			t.Errorf("%s: AnalyzeSSTA returned %v, want ErrNonFiniteConfig", name, err)
		}
	}
}

// zeroArcs is a CanonicalArcs whose every arc is zero.
type zeroArcs struct{}

func (zeroArcs) Arc(string, bool, float64, float64) (Canonical, float64)    { return Canonical{}, 0 }
func (zeroArcs) Launch(string, bool, float64, float64) (Canonical, float64) { return Canonical{}, 0 }

// TestExtremeLengthsNoNaNSlack pins the NaN policy that lets a Monte Carlo
// sample find WNS by a minimum scan instead of finish's sort: accepted
// lengths give no NaN slack, however extreme. Lengths at the device
// model's 5 nm floor, at 1e308 nm and at math.MaxFloat64, on every gate by
// name, on half the gates, and as a "*" blanket, go through Analyze,
// AnalyzeIncremental and MonteCarlo; MonteCarlo's WNS and leakage must
// carry AnalyzeIncremental's bits.
func TestExtremeLengthsNoNaNSlack(t *testing.T) {
	n := netlist.Datapath(4, 5, 1)
	g := buildGraph(t, n)
	cfg := DefaultConfig(2000)
	base, err := g.Analyze(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var samples []Annotations
	for _, l := range []float64{5, 1e308, math.MaxFloat64} {
		every, half := Annotations{}, Annotations{}
		for i, gt := range n.Gates {
			every[gt.Name] = timinglib.Uniform(l)
			if i%2 == 0 {
				half[gt.Name] = timinglib.Uniform(l)
			}
		}
		samples = append(samples, every, half, Annotations{"*": timinglib.Uniform(l)})
	}
	noNaN := func(label string, r *Result) {
		t.Helper()
		if math.IsNaN(r.WNS) || math.IsNaN(r.TNS) || math.IsNaN(r.LeakNW) {
			t.Fatalf("%s: WNS %v, TNS %v, leakage %v", label, r.WNS, r.TNS, r.LeakNW)
		}
		for _, ep := range r.Endpoints {
			if math.IsNaN(ep.SlackPS) {
				t.Fatalf("%s: endpoint %s slack is NaN", label, ep.Name)
			}
		}
	}
	want := make([]*Result, len(samples))
	for i, ann := range samples {
		full, err := g.Analyze(cfg, ann)
		if err != nil {
			t.Fatal(err)
		}
		noNaN(fmt.Sprintf("Analyze %d", i), full)
		if want[i], err = g.AnalyzeIncremental(cfg, ann, base); err != nil {
			t.Fatal(err)
		}
		noNaN(fmt.Sprintf("AnalyzeIncremental %d", i), want[i])
	}
	for _, workers := range []int{1, 2} {
		wns, leak, err := g.MonteCarlo(cfg, base, len(samples), shared(func(i int) Annotations { return samples[i] }),
			MonteCarloOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range samples {
			if !bitsEq(wns[i], want[i].WNS) || !bitsEq(leak[i], want[i].LeakNW) {
				t.Fatalf("workers=%d sample %d: (WNS %v, leak %v), AnalyzeIncremental (%v, %v)",
					workers, i, wns[i], leak[i], want[i].WNS, want[i].LeakNW)
			}
		}
	}
}

// TestNaNSlackSortsFirst covers the one way left to a NaN slack: a
// negative wire load and contact resistance at a flop whose Q net is an
// endpoint overflow against an infinite drive term into a NaN launch.
// finish sorts the NaN slack first, and a Monte Carlo sample's scan must
// return the same bits.
func TestNaNSlackSortsFirst(t *testing.T) {
	n := &netlist.Netlist{Name: "ff2", Inputs: []string{"din", "clk"}}
	n.AddGate("f1", "DFF_X1", map[string]string{"D": "din", "CK": "clk", "Q": "q1"})
	n.AddGate("f2", "DFF_X1", map[string]string{"D": "q1", "CK": "clk", "Q": "q2"})
	n.Outputs = []string{"q2"}
	g := buildGraph(t, n)
	cfg := DefaultConfig(2000)
	cfg.WireLoads = map[string]float64{"q1": -1e300, "q2": -1e300}
	base, err := g.Analyze(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ann := Annotations{"f1": func(layout.GateSite) timinglib.Lengths {
		return timinglib.Lengths{DelayL: math.MaxFloat64, LeakL: 90, RContactOhm: -math.MaxFloat64}
	}}
	want, err := g.AnalyzeIncremental(cfg, ann, base)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(want.WNS) || !math.IsNaN(want.Endpoints[0].SlackPS) || want.Endpoints[0].Name != "f2/D" {
		t.Fatalf("want the NaN slack of f2/D first, got WNS %v and endpoints %+v", want.WNS, want.Endpoints)
	}
	wns, leak, err := g.MonteCarlo(cfg, base, 1, shared(func(int) Annotations { return ann }), MonteCarloOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEq(wns[0], want.WNS) || !bitsEq(leak[0], want.LeakNW) {
		t.Fatalf("sample (WNS %v, leak %v), AnalyzeIncremental (%v, %v)", wns[0], leak[0], want.WNS, want.LeakNW)
	}
}
