package sta

import (
	"errors"
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
	_, _, errs["MonteCarlo"] = g.MonteCarlo(cfg, base, 8, func(i int) Annotations {
		if i == 5 {
			return ann
		}
		return nil
	}, MonteCarloOptions{Workers: 2})
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
