package sta

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"postopc/internal/netlist"
	"postopc/internal/obs"
	"postopc/internal/timinglib"
)

// bitsEq compares floats bit-for-bit: the incremental contract is byte
// identity, not approximate equality.
func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// requireResultsIdentical asserts two Results are byte-identical in every
// exported field.
func requireResultsIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !bitsEq(want.WNS, got.WNS) || !bitsEq(want.TNS, got.TNS) || !bitsEq(want.LeakNW, got.LeakNW) {
		t.Fatalf("%s: WNS/TNS/Leak diverge: (%v %v %v) vs (%v %v %v)",
			label, want.WNS, want.TNS, want.LeakNW, got.WNS, got.TNS, got.LeakNW)
	}
	if len(want.Endpoints) != len(got.Endpoints) {
		t.Fatalf("%s: endpoint count %d vs %d", label, len(want.Endpoints), len(got.Endpoints))
	}
	for i := range want.Endpoints {
		w, g := want.Endpoints[i], got.Endpoints[i]
		if w.Name != g.Name || w.Net != g.Net || w.Rise != g.Rise ||
			!bitsEq(w.RequiredPS, g.RequiredPS) || !bitsEq(w.ArrivalPS, g.ArrivalPS) ||
			!bitsEq(w.SlackPS, g.SlackPS) {
			t.Fatalf("%s: endpoint %d diverges: %+v vs %+v", label, i, w, g)
		}
	}
	if len(want.Paths) != len(got.Paths) {
		t.Fatalf("%s: path count %d vs %d", label, len(want.Paths), len(got.Paths))
	}
	for i := range want.Paths {
		w, g := want.Paths[i], got.Paths[i]
		if w.Endpoint != g.Endpoint || !bitsEq(w.SlackPS, g.SlackPS) || !bitsEq(w.ArrivalPS, g.ArrivalPS) {
			t.Fatalf("%s: path %d header diverges: %+v vs %+v", label, i, w, g)
		}
		if len(w.Points) != len(g.Points) {
			t.Fatalf("%s: path %d point count %d vs %d", label, i, len(w.Points), len(g.Points))
		}
		for j := range w.Points {
			if w.Points[j] != g.Points[j] {
				t.Fatalf("%s: path %d point %d: %+v vs %+v", label, i, j, w.Points[j], g.Points[j])
			}
		}
	}
}

func buildGraph(t *testing.T, n *netlist.Netlist) *Graph {
	t.Helper()
	lib, tl := env(t)
	g, err := Build(n, lib, tl)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// dffPipe is a small mixed design: two flop stages around combinational
// logic, so incremental re-analysis covers flop launch recompute too.
func dffPipe() *netlist.Netlist {
	n := &netlist.Netlist{Name: "pipe", Inputs: []string{"din", "clk"}}
	n.AddGate("f1", "DFF_X1", map[string]string{"D": "din", "CK": "clk", "Q": "q1"})
	n.AddGate("g1", "INV_X1", map[string]string{"A": "q1", "Y": "n1"})
	n.AddGate("g2", "NAND2_X1", map[string]string{"A": "n1", "B": "q1", "Y": "n2"})
	n.AddGate("f2", "DFF_X1", map[string]string{"D": "n2", "CK": "clk", "Q": "q2"})
	n.AddGate("g3", "INV_X1", map[string]string{"A": "q2", "Y": "out"})
	n.Outputs = []string{"out"}
	return n
}

// TestIncrementalMatchesFull drives AnalyzeIncremental through a series of
// annotation deltas on several designs and asserts byte identity with a
// fresh full Analyze at every step, chaining each incremental result as the
// next baseline.
func TestIncrementalMatchesFull(t *testing.T) {
	designs := []struct {
		name string
		n    *netlist.Netlist
		anng func(n *netlist.Netlist) []Annotations // successive annotation sets
	}{
		{
			name: "adder/subset",
			n:    netlist.RippleCarryAdder(8),
			anng: func(n *netlist.Netlist) []Annotations {
				g0, g1 := n.Gates[0].Name, n.Gates[len(n.Gates)/2].Name
				return []Annotations{
					{g0: timinglib.Uniform(96)},
					{g0: timinglib.Uniform(96), g1: timinglib.Uniform(84)},
					{g1: timinglib.Uniform(84)}, // entry removed
					{g1: timinglib.Uniform(84)}, // no-op: identical evals
					nil,                         // back to drawn
				}
			},
		},
		{
			name: "pipe/seq",
			n:    dffPipe(),
			anng: func(*netlist.Netlist) []Annotations {
				return []Annotations{
					{"f1": timinglib.Uniform(88)}, // launch flop
					{"f1": timinglib.Uniform(88), "g2": timinglib.Uniform(97)},
					{"g3": timinglib.Uniform(92)}, // post-capture logic only
				}
			},
		},
		{
			name: "datapath/walls",
			n:    netlist.Datapath(6, 5, 11),
			anng: func(n *netlist.Netlist) []Annotations {
				g0, g1 := n.Gates[1].Name, n.Gates[len(n.Gates)-2].Name
				return []Annotations{
					{g0: timinglib.Uniform(95)},
					{g0: timinglib.Uniform(95), g1: timinglib.Uniform(86)},
				}
			},
		},
	}
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			g := buildGraph(t, d.n)
			cfg := DefaultConfig(2500)
			cfg.KPaths = 4
			base, err := g.Analyze(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			prev := base
			for i, ann := range d.anng(d.n) {
				full, err := g.Analyze(cfg, ann)
				if err != nil {
					t.Fatal(err)
				}
				incr, err := g.AnalyzeIncremental(cfg, ann, prev)
				if err != nil {
					t.Fatal(err)
				}
				requireResultsIdentical(t, fmt.Sprintf("step %d (from prev)", i), full, incr)
				// Also seed from the original baseline, not just the chain.
				incr2, err := g.AnalyzeIncremental(cfg, ann, base)
				if err != nil {
					t.Fatal(err)
				}
				requireResultsIdentical(t, fmt.Sprintf("step %d (from base)", i), full, incr2)
				prev = incr
			}
		})
	}
}

// TestIncrementalSharesCleanArrivals asserts the engine really is
// incremental: arrivals outside the dirty cone are the baseline's structs,
// not recomputed copies.
func TestIncrementalSharesCleanArrivals(t *testing.T) {
	n := netlist.Datapath(6, 5, 11)
	g := buildGraph(t, n)
	cfg := DefaultConfig(2500)
	base, err := g.Analyze(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Annotate one early gate; most chains' nets must stay untouched.
	incr, err := g.AnalyzeIncremental(cfg, Annotations{n.Gates[1].Name: timinglib.Uniform(95)}, base)
	if err != nil {
		t.Fatal(err)
	}
	shared, total := 0, 0
	for ni, a := range base.arr {
		if a == nil {
			continue
		}
		total++
		if incr.arr[ni] == a {
			shared++
		}
	}
	if shared == 0 || shared == total {
		t.Fatalf("expected partial sharing, got %d/%d shared", shared, total)
	}
	// Conservative floor: at most one chain (plus slack) is dirty.
	if shared < total/2 {
		t.Fatalf("dirty cone too large: only %d/%d arrivals shared", shared, total)
	}
}

// TestIncrementalFallsBackToFull covers the baselines an incremental
// analysis must refuse: wrong boundary conditions, blanket annotations, nil
// or foreign baselines. Each refusal names its reason and moves
// "sta.incremental_fallbacks_total", and the result must still be
// byte-identical to a full Analyze.
func TestIncrementalFallsBackToFull(t *testing.T) {
	n := netlist.RippleCarryAdder(4)
	g := buildGraph(t, n)
	sink := obs.NewSink()
	g.Instrument(sink)
	fallbacks := sink.Counter("sta.incremental_fallbacks_total")
	cfg := DefaultConfig(2500)
	base, err := g.Analyze(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := buildGraph(t, netlist.RippleCarryAdder(4)).Analyze(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ann := Annotations{n.Gates[2].Name: timinglib.Uniform(94)}

	cases := []struct {
		name   string
		cfg    Config
		ann    Annotations
		base   *Result
		reason string // incrementalOK expectation; "" = incremental
	}{
		{"nil baseline", cfg, ann, nil, refuseNilBaseline},
		{"foreign graph", cfg, ann, foreign, refuseForeignGraph},
		{"blanket annotation", cfg, Annotations{"*": timinglib.Uniform(94)}, base, refuseBlanket},
		{"slew changed", func() Config { c := cfg; c.InputSlewPS = cfg.InputSlewPS * 2; return c }(), ann, base, refuseInputSlew},
		{"load changed", func() Config { c := cfg; c.PrimaryLoadFF += 1; return c }(), ann, base, refusePrimaryLoad},
		{"wire loads added", func() Config { c := cfg; c.WireLoads = map[string]float64{"s0": 0.5}; return c }(), ann, base, refuseWireLoads},
		{"clock changed is fine", func() Config { c := cfg; c.ClockPS = 9000; return c }(), ann, base, ""},
		{"kpaths changed is fine", func() Config { c := cfg; c.KPaths = 2; return c }(), ann, base, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := g.incrementalOK(tc.cfg, tc.ann, tc.base); got != tc.reason {
				t.Fatalf("incrementalOK = %q, want %q", got, tc.reason)
			}
			full, err := g.Analyze(tc.cfg, tc.ann)
			if err != nil {
				t.Fatal(err)
			}
			before := fallbacks.Value()
			incr, err := g.AnalyzeIncremental(tc.cfg, tc.ann, tc.base)
			if err != nil {
				t.Fatal(err)
			}
			want := uint64(0)
			if tc.reason != "" {
				want = 1
			}
			if got := fallbacks.Value() - before; got != want {
				t.Fatalf("fallback counter moved by %d, want %d", got, want)
			}
			requireResultsIdentical(t, tc.name, full, incr)
		})
	}
}

// TestIncrementalBaselineImmutable locks the retention contract: running an
// incremental analysis must not disturb the baseline's reported numbers.
func TestIncrementalBaselineImmutable(t *testing.T) {
	n := dffPipe()
	g := buildGraph(t, n)
	cfg := DefaultConfig(1500)
	base, err := g.Analyze(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := g.Analyze(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AnalyzeIncremental(cfg, Annotations{"g2": timinglib.Uniform(85)}, base); err != nil {
		t.Fatal(err)
	}
	requireResultsIdentical(t, "baseline after incremental", again, base)
}

// TestMultiCornerDeterminism runs the same corner grid at several worker
// counts, full and incremental, and demands a byte-identical merged view.
func TestMultiCornerDeterminism(t *testing.T) {
	n := netlist.Datapath(6, 5, 11)
	g := buildGraph(t, n)
	cfg := DefaultConfig(2500)
	ga, gb, gc, gd := n.Gates[1].Name, n.Gates[5].Name, n.Gates[9].Name, n.Gates[len(n.Gates)-3].Name
	corners := []CornerSpec{
		{Name: "nominal", Ann: nil},
		{Name: "slow", Ann: Annotations{ga: timinglib.Uniform(99), gb: timinglib.Uniform(98)}},
		{Name: "fast", Ann: Annotations{ga: timinglib.Uniform(85)}},
		{Name: "mixed", Ann: Annotations{gc: timinglib.Uniform(96), gd: timinglib.Uniform(88)}},
	}
	ref, err := g.MultiCorner(cfg, corners, MultiCornerOptions{Workers: 1, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, full := range []bool{false, true} {
			got, err := g.MultiCorner(cfg, corners, MultiCornerOptions{
				Workers: workers, Full: full, Obs: obs.NewSink(),
			})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("workers=%d full=%v", workers, full)
			if !bitsEq(ref.WNS, got.WNS) || !bitsEq(ref.TNS, got.TNS) {
				t.Fatalf("%s: WNS/TNS diverge: (%v %v) vs (%v %v)",
					label, ref.WNS, ref.TNS, got.WNS, got.TNS)
			}
			if len(ref.Merged) != len(got.Merged) {
				t.Fatalf("%s: merged count %d vs %d", label, len(ref.Merged), len(got.Merged))
			}
			for i := range ref.Merged {
				if ref.Merged[i] != got.Merged[i] {
					t.Fatalf("%s: merged[%d]: %+v vs %+v", label, i, ref.Merged[i], got.Merged[i])
				}
			}
			for ci := range corners {
				requireResultsIdentical(t, fmt.Sprintf("%s corner %s", label, corners[ci].Name),
					ref.Corners[ci].Res, got.Corners[ci].Res)
			}
		}
	}
}

// TestMultiCornerMergeSemantics checks worst-slack selection, first-corner
// tie-breaking, TNS accounting and the dominant-corner census.
func TestMultiCornerMergeSemantics(t *testing.T) {
	n := netlist.InverterChain(8)
	g := buildGraph(t, n)
	cfg := DefaultConfig(2000)
	slowAll := Annotations{}
	for _, gt := range n.Gates {
		slowAll[gt.Name] = timinglib.Uniform(100)
	}
	corners := []CornerSpec{
		{Name: "nom", Ann: nil},
		{Name: "nom-dup", Ann: nil}, // identical corner: tie must stay on "nom"
		{Name: "slow", Ann: slowAll},
	}
	mc, err := g.MultiCorner(cfg, corners, MultiCornerOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.Corners) != 3 || len(mc.Merged) != 1 {
		t.Fatalf("shape: %d corners, %d merged", len(mc.Corners), len(mc.Merged))
	}
	slow := mc.Corners[2].Res
	m := mc.Merged[0]
	if m.Corner != "slow" || !bitsEq(m.SlackPS, slow.WNS) {
		t.Fatalf("merged endpoint should be dominated by slow: %+v (slow WNS %v)", m, slow.WNS)
	}
	if !bitsEq(mc.WNS, slow.WNS) {
		t.Fatalf("merged WNS %v, want slow corner's %v", mc.WNS, slow.WNS)
	}
	wantTNS := 0.0
	if m.SlackPS < 0 {
		wantTNS = m.SlackPS
	}
	if !bitsEq(mc.TNS, wantTNS) {
		t.Fatalf("TNS %v, want %v", mc.TNS, wantTNS)
	}
	dom := mc.DominantCorners()
	if dom["slow"] != 1 || dom["nom"] != 0 || dom["nom-dup"] != 0 {
		t.Fatalf("dominant census: %v", dom)
	}

	// Ties between equal corners stick to the earliest in input order.
	tie, err := g.MultiCorner(cfg, corners[:2], MultiCornerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tie.Merged[0].Corner != "nom" {
		t.Fatalf("tie broke to %q, want first corner", tie.Merged[0].Corner)
	}

	if _, err := g.MultiCorner(cfg, nil, MultiCornerOptions{}); err == nil {
		t.Fatal("empty corner set must error")
	}
}

// TestMultiCornerTables smoke-renders the report views.
func TestMultiCornerTables(t *testing.T) {
	n := netlist.RippleCarryAdder(4)
	g := buildGraph(t, n)
	mc, err := g.MultiCorner(DefaultConfig(2500), []CornerSpec{
		{Name: "nom", Ann: nil},
		{Name: "slow", Ann: Annotations{n.Gates[3].Name: timinglib.Uniform(99)}},
	}, MultiCornerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum := mc.SummaryTable().String()
	if sum == "" || len(mc.MergedTable(3).String()) == 0 {
		t.Fatal("empty report render")
	}
	for _, want := range []string{"nom", "slow", "merged worst"} {
		if !contains(sum, want) {
			t.Fatalf("summary table missing %q:\n%s", want, sum)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestIncrementalTelemetry asserts the incremental counters move and the
// cone histogram sees fewer gates than the full-eval histogram.
func TestIncrementalTelemetry(t *testing.T) {
	n := netlist.Datapath(6, 5, 11)
	lib, tl := env(t)
	g, err := Build(n, lib, tl)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewSink()
	g.Instrument(sink)
	cfg := DefaultConfig(2500)
	base, err := g.Analyze(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AnalyzeIncremental(cfg, Annotations{n.Gates[1].Name: timinglib.Uniform(95)}, base); err != nil {
		t.Fatal(err)
	}
	snap := sink.Metrics.Snapshot()
	counters := map[string]uint64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["sta.analyses_total"] != 1 || counters["sta.incremental_analyses_total"] != 1 {
		t.Fatalf("counters: %v", counters)
	}
	var fullSum, coneSum float64
	for _, h := range snap.Histograms {
		switch h.Name {
		case "sta.full_gate_evals":
			fullSum = h.Sum
		case "sta.incremental_cone_gates":
			coneSum = h.Sum
		}
	}
	if fullSum != float64(len(n.Gates)) {
		t.Fatalf("full evals histogram sum %v, want %d", fullSum, len(n.Gates))
	}
	if coneSum <= 0 || coneSum >= fullSum {
		t.Fatalf("cone gates %v should be positive and below full %v", coneSum, fullSum)
	}
}
