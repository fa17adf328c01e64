package sta

import (
	"testing"

	"postopc/internal/layout"
	"postopc/internal/netlist"
	"postopc/internal/timinglib"
)

// shared is a MonteCarlo annotation factory that hands every worker slot
// the same sample function.
func shared(ann func(i int) Annotations) func() func(i int) Annotations {
	return func() func(i int) Annotations { return ann }
}

// mcSampleAnn is sample i's annotation set for the Monte Carlo tests, over
// the baseline gates names[0:2] and the extra gates names[2:]. Every
// eighth sample equals the baseline, others add or drop a gate, one in
// eight carries a contact resistance, and the last is a blanket "*" set,
// which no baseline can seed.
func mcSampleAnn(i, samples int, names []string) Annotations {
	l := 84 + float64(i%13)
	switch {
	case i == samples-1:
		return Annotations{"*": timinglib.Uniform(l)}
	case i%8 == 0:
		return Annotations{names[0]: timinglib.Uniform(92), names[1]: timinglib.Uniform(95)}
	case i%8 == 1: // adds a gate
		return Annotations{names[0]: timinglib.Uniform(92), names[1]: timinglib.Uniform(95),
			names[2+i%(len(names)-2)]: timinglib.Uniform(l)}
	case i%8 == 2: // drops a gate
		return Annotations{names[0]: timinglib.Uniform(l)}
	case i%8 == 3: // contact resistance
		rc := 100 + 10*float64(i)
		return Annotations{names[0]: timinglib.Uniform(92), names[1]: func(layout.GateSite) timinglib.Lengths {
			return timinglib.Lengths{DelayL: l, LeakL: l + 1, RContactOhm: rc}
		}}
	default:
		ann := Annotations{names[0]: timinglib.Uniform(l), names[1]: timinglib.Uniform(180 - l)}
		for k := 2; k < len(names); k += 1 + i%3 {
			ann[names[k]] = timinglib.Uniform(l + float64(k))
		}
		return ann
	}
}

// TestMonteCarloMatchesIncremental checks that every sample's WNS and
// leakage are bit-identical to AnalyzeIncremental's from the same
// baseline, serially and with four workers reusing their state.
func TestMonteCarloMatchesIncremental(t *testing.T) {
	n := netlist.Datapath(8, 6, 5)
	g := buildGraph(t, n)
	cfg := DefaultConfig(1800)
	cfg.KPaths = 1
	var names []string
	for i := 1; i < len(n.Gates); i += len(n.Gates) / 9 {
		names = append(names, n.Gates[i].Name)
	}
	base, err := g.Analyze(cfg, mcSampleAnn(0, 1, names))
	if err != nil {
		t.Fatal(err)
	}
	const samples = 64
	ann := func(i int) Annotations { return mcSampleAnn(i, samples, names) }
	for _, workers := range []int{1, 4} {
		wns, leak, err := g.MonteCarlo(cfg, base, samples, shared(ann), MonteCarloOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(wns) != samples || len(leak) != samples {
			t.Fatalf("workers=%d: %d WNS and %d leakage values for %d samples", workers, len(wns), len(leak), samples)
		}
		for i := 0; i < samples; i++ {
			want, err := g.AnalyzeIncremental(cfg, ann(i), base)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEq(wns[i], want.WNS) || !bitsEq(leak[i], want.LeakNW) {
				t.Fatalf("workers=%d sample %d: (WNS %v, leak %v), AnalyzeIncremental (%v, %v)",
					workers, i, wns[i], leak[i], want.WNS, want.LeakNW)
			}
		}
	}
	if wns, leak, err := g.MonteCarlo(cfg, base, 0, shared(ann), MonteCarloOptions{}); wns != nil || leak != nil || err != nil {
		t.Fatalf("zero samples: %v %v %v", wns, leak, err)
	}
}

// TestMonteCarloAllocsFlatInDesignSize keeps per-analysis O(gates)
// allocation from coming back: one sample through MonteCarlo allocates
// no more on a four times larger design with the same annotated gates
// (17 allocations per call, all of them the call's and the worker's
// set-up), and every further sample a worker runs allocates nothing,
// since it restores and overwrites the worker's state.
func TestMonteCarloAllocsFlatInDesignSize(t *testing.T) {
	small := netlist.Datapath(8, 6, 5)
	names := []string{small.Gates[1].Name, small.Gates[2].Name, small.Gates[7].Name}
	allocs := func(n *netlist.Netlist) (one, more float64) {
		g := buildGraph(t, n)
		for _, name := range names {
			if _, ok := g.byName[name]; !ok {
				t.Fatalf("%s: no gate %s", n.Name, name)
			}
		}
		cfg := DefaultConfig(1800)
		cfg.KPaths = 1
		base, err := g.Analyze(cfg, Annotations{names[0]: timinglib.Uniform(92)})
		if err != nil {
			t.Fatal(err)
		}
		ann := Annotations{}
		for k, name := range names {
			ann[name] = timinglib.Uniform(88 + float64(k))
		}
		sample := func(int) Annotations { return ann }
		run := func(samples int) func() {
			return func() {
				if _, _, err := g.MonteCarlo(cfg, base, samples, shared(sample), MonteCarloOptions{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			}
		}
		run(1)() // warm-up: the cells' shared views
		return testing.AllocsPerRun(20, run(1)), testing.AllocsPerRun(20, run(17))
	}
	a1, a17 := allocs(small)
	b1, b17 := allocs(netlist.Datapath(32, 6, 5))
	t.Logf("allocations per MonteCarlo call of 1 and 17 samples: %v, %v (8 chains); %v, %v (32 chains)", a1, a17, b1, b17)
	if b1 > a1 {
		t.Fatalf("allocations grew with the design: %v (8 chains) -> %v (32 chains)", a1, b1)
	}
	if a17 != a1 || b17 != b1 {
		t.Fatalf("16 more samples on one worker allocated: %v -> %v (8 chains), %v -> %v (32 chains)", a1, a17, b1, b17)
	}
}

// TestMonteCarloRestoresBetweenSamples runs one worker through samples
// that alternate between two disjoint annotated gate sets, with samples
// equal to the baseline in between. A sample starts from the state the
// previous one left, restored only where that one wrote, so a missed
// restore leaves the other set's evals or arrivals behind and the sample
// stops matching AnalyzeIncremental.
func TestMonteCarloRestoresBetweenSamples(t *testing.T) {
	n := netlist.Datapath(8, 6, 5)
	g := buildGraph(t, n)
	cfg := DefaultConfig(1800)
	cfg.KPaths = 1
	drawn, err := g.Analyze(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Set a holds the worst path's gates, slowed so the worst slack moves;
	// set b holds four gates off that path.
	a := Annotations{}
	for _, name := range drawn.CriticalGates(1) {
		a[name] = timinglib.Uniform(130)
	}
	b := Annotations{}
	for i := len(n.Gates) - 1; i >= 0 && len(b) < 4; i-- {
		if name := n.Gates[i].Name; a[name] == nil {
			b[name] = timinglib.Uniform(70)
		}
	}
	if len(a) == 0 {
		t.Fatal("no gate on the worst path")
	}
	order := []Annotations{a, b, a, nil, b, nil, a, a, b, b, nil}
	wns, leak, err := g.MonteCarlo(cfg, drawn, len(order), shared(func(i int) Annotations { return order[i] }),
		MonteCarloOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, ann := range order {
		want, err := g.AnalyzeIncremental(cfg, ann, drawn)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEq(wns[i], want.WNS) || !bitsEq(leak[i], want.LeakNW) {
			t.Fatalf("sample %d: (WNS %v, leak %v), AnalyzeIncremental (%v, %v)", i, wns[i], leak[i], want.WNS, want.LeakNW)
		}
	}
	if bitsEq(wns[0], drawn.WNS) {
		t.Fatalf("set a left WNS at the drawn %v: the test cannot see stale arrivals", drawn.WNS)
	}
}
