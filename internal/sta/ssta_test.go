package sta

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"postopc/internal/netlist"
)

func TestCanonicalAlgebra(t *testing.T) {
	p := DefaultSSTAParams()
	a := Canonical{Mean: 100, SensU: 10, SensD: 4, Rand2: 9}
	b := Canonical{Mean: 50, SensU: -5, SensD: 2, Rand2: 4}
	s := a.add(b)
	if s.Mean != 150 || s.SensU != 5 || s.SensD != 6 || s.Rand2 != 13 {
		t.Fatalf("add = %+v", s)
	}
	// Total mean includes the focus-severity mean.
	if got := a.MeanTotal(p); math.Abs(got-(100+10.0/9)) > 1e-12 {
		t.Fatalf("mean total = %g", got)
	}
	if a.Sigma(p) <= 0 {
		t.Fatal("sigma must be positive")
	}
	// Quantiles are monotone in z.
	if !(a.Quantile(p, -3) < a.Quantile(p, 0) && a.Quantile(p, 0) < a.Quantile(p, 3)) {
		t.Fatal("quantiles not monotone")
	}
}

func TestClarkMaxProperties(t *testing.T) {
	p := DefaultSSTAParams()
	a := Canonical{Mean: 100, SensU: 8, Rand2: 25}
	b := Canonical{Mean: 90, SensU: 8, Rand2: 25}
	m := cmax(a, b, p)
	// The max mean is at least each operand's mean.
	if m.MeanTotal(p) < a.MeanTotal(p)-1e-9 || m.MeanTotal(p) < b.MeanTotal(p)-1e-9 {
		t.Fatalf("max mean %.3f below operands", m.MeanTotal(p))
	}
	// Dominant operand: max(a, much-smaller) ≈ a.
	tiny := Canonical{Mean: 1}
	md := cmax(a, tiny, p)
	if math.Abs(md.MeanTotal(p)-a.MeanTotal(p)) > 0.01 {
		t.Fatalf("dominated max drifted: %.3f vs %.3f", md.MeanTotal(p), a.MeanTotal(p))
	}
	// Symmetric: max(a,b) == max(b,a) within numerics.
	m2 := cmax(b, a, p)
	if math.Abs(m.MeanTotal(p)-m2.MeanTotal(p)) > 1e-9 ||
		math.Abs(m.Sigma(p)-m2.Sigma(p)) > 1e-9 {
		t.Fatal("Clark max not symmetric")
	}
	// Perfectly correlated equal-sensitivity case degenerates to the
	// larger mean.
	c1 := Canonical{Mean: 10, SensU: 5}
	c2 := Canonical{Mean: 12, SensU: 5}
	if got := cmax(c1, c2, p); got != c2 {
		t.Fatalf("correlated max = %+v", got)
	}
}

func TestPhiHelpers(t *testing.T) {
	if math.Abs(phiCDF(0)-0.5) > 1e-12 {
		t.Fatal("Φ(0)")
	}
	if math.Abs(phiCDF(3)+phiCDF(-3)-1) > 1e-12 {
		t.Fatal("Φ symmetry")
	}
	if math.Abs(phiPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Fatal("φ(0)")
	}
}

// constArcs is a trivial arc model for propagation tests: every arc has
// delay 10 with SensU 2 and unit random variance.
type constArcs struct{}

func (constArcs) Arc(string, bool, float64, float64) (Canonical, float64) {
	return Canonical{Mean: 10, SensU: 2, Rand2: 1}, 20
}
func (constArcs) Launch(string, bool, float64, float64) (Canonical, float64) {
	return Canonical{Mean: 30, SensU: 3, Rand2: 1}, 20
}

func TestAnalyzeSSTAChain(t *testing.T) {
	lib, tl := env(t)
	n := chainNetlist(6)
	g, err := Build(n, lib, tl)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultSSTAParams()
	res, err := g.AnalyzeSSTA(DefaultConfig(1000), p, constArcs{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Endpoints) != 1 {
		t.Fatalf("endpoints = %d", len(res.Endpoints))
	}
	sl := res.Endpoints[0].Slack
	// A 6-stage chain of constant arcs: arrival = 6 canonical arcs summed,
	// then the endpoint takes Clark's max of the (equal-mean) rise and
	// fall arrivals, whose random parts are independent: the max gains
	// θ·φ(0) with θ² = 2·Rand2.
	arrMean := 6*10 + 6*2*p.MeanU
	theta := math.Sqrt(2 * 6.0)
	wantMean := 1000 - (arrMean + theta*phiPDF(0))
	if math.Abs(sl.MeanTotal(p)-wantMean) > 1e-9 {
		t.Fatalf("slack mean %.3f, want %.3f", sl.MeanTotal(p), wantMean)
	}
	// Sensitivities accumulate fully correlated.
	if sl.SensU != -12 {
		t.Fatalf("SensU = %g", sl.SensU)
	}
	// The independent part stays in a plausible band around 6.
	if sl.Rand2 < 2 || sl.Rand2 > 8 {
		t.Fatalf("Rand2 = %g", sl.Rand2)
	}
	if res.WNS.MeanTotal(p) != sl.MeanTotal(p) {
		t.Fatal("single-endpoint WNS must equal its slack")
	}
}

func TestAnalyzeSSTAErrors(t *testing.T) {
	lib, tl := env(t)
	g, err := Build(chainNetlist(2), lib, tl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AnalyzeSSTA(DefaultConfig(1000), DefaultSSTAParams(), nil); err == nil {
		t.Fatal("nil arc model accepted")
	}
}

func chainNetlist(k int) *netlist.Netlist { return netlist.InverterChain(k) }

// gateArcs gives every gate and output sense its own canonical delay, so
// the order a gate's input arrivals are merged in shows in the result
// bits: Clark's max is not bit-symmetric in its operands.
type gateArcs struct{}

func (gateArcs) Arc(gate string, outRise bool, loadFF, inSlewPS float64) (Canonical, float64) {
	h := uint32(2166136261) // FNV-1a over the gate name and sense
	for i := 0; i < len(gate); i++ {
		h = (h ^ uint32(gate[i])) * 16777619
	}
	if outRise {
		h = (h ^ 0x5a) * 16777619
	}
	v := float64(h%1024) / 1024
	return Canonical{Mean: 8 + 6*v + 0.05*loadFF, SensU: 5 + 20*v, SensD: 15 - 10*v, Rand2: 20 + 200*v},
		15 + 10*v + 0.02*inSlewPS
}

func (a gateArcs) Launch(gate string, outRise bool, loadFF, inSlewPS float64) (Canonical, float64) {
	return a.Arc(gate, outRise, loadFF, inSlewPS)
}

// goldenSSTASHA pins AnalyzeSSTA of Datapath(16, 8, 3) under gateArcs: the
// bits of every endpoint's canonical slack and of the canonical WNS.
const goldenSSTASHA = "4cb55c68ee22bf3619accbd6f950c0a87e33f16abb62308528fa3a893c103956"

func renderSSTABits(r *SSTAResult) string {
	bits := func(c Canonical) string {
		return fmt.Sprintf("%016x %016x %016x %016x", math.Float64bits(c.Mean),
			math.Float64bits(c.SensU), math.Float64bits(c.SensD), math.Float64bits(c.Rand2))
	}
	var b strings.Builder
	for _, ep := range r.Endpoints {
		fmt.Fprintf(&b, "%s %s\n", ep.Name, bits(ep.Slack))
	}
	fmt.Fprintf(&b, "wns %s\n", bits(r.WNS))
	return b.String()
}

// TestAnalyzeSSTADeterministic runs SSTA 50 times on one graph: every run
// must give the same bits, and they must match the golden. Inputs are
// merged in Build's sorted pin order, not in map iteration order.
func TestAnalyzeSSTADeterministic(t *testing.T) {
	g := buildGraph(t, netlist.Datapath(16, 8, 3))
	cfg := DefaultConfig(1500)
	p := DefaultSSTAParams()
	var first string
	for run := 0; run < 50; run++ {
		res, err := g.AnalyzeSSTA(cfg, p, gateArcs{})
		if err != nil {
			t.Fatal(err)
		}
		got := renderSSTABits(res)
		if run == 0 {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("run %d differs from run 0", run)
		}
	}
	if got := sha256Hex(first); got != goldenSSTASHA {
		t.Fatalf("SSTA digest %s, want %s", got, goldenSSTASHA)
	}
}
