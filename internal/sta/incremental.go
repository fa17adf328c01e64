package sta

import (
	"sort"

	"postopc/internal/timinglib"
)

// AnalyzeIncremental re-runs STA under new annotations, recomputing only
// the fan-out cone of gates whose annotation actually changed relative to
// a baseline produced by Analyze (or a previous AnalyzeIncremental) on the
// same graph. The result is bit-identical to a full Analyze(cfg, ann) —
// the incremental engine is purely a work-avoidance strategy:
//
//   - Candidate gates (any gate named in either annotation set) are
//     re-evaluated; a gate whose electrical view comes out identical is
//     treated as unchanged, so corners that only perturb a subset of gates
//     pay only for that subset.
//   - Arrivals are recomputed in topological order only where an input
//     arrival, the gate's own evaluation, or its output load changed; a
//     recomputed arrival that matches the baseline bit-for-bit stops the
//     cone there.
//   - Clean nets share their arrival structs with the baseline (arrivals
//     are immutable once an analysis returns), and leakage is re-summed in
//     the same gate order as Analyze so the total carries identical
//     floating-point rounding.
//
// The baseline must have been analyzed under the same arrival-relevant
// boundary conditions (InputSlewPS, PrimaryLoadFF, WireLoads). ClockPS,
// SetupPS and KPaths may differ — they only shape required times and path
// reporting, which are always recomputed. When the baseline is unusable —
// nil, from a different graph, differing boundary conditions, or when
// either annotation set carries the "*" blanket default (which touches
// every gate) — AnalyzeIncremental falls back to a full Analyze and counts
// the fallback in "sta.incremental_fallbacks_total" (incrementalOK names
// the reason). Telemetry: "sta.incremental_analyses_total",
// "sta.incremental_gate_evals" (candidates re-evaluated) and
// "sta.incremental_cone_gates" (arrivals recomputed).
func (g *Graph) AnalyzeIncremental(cfg Config, ann Annotations, base *Result) (*Result, error) {
	if g.incrementalOK(cfg, ann, base) != "" {
		g.cFallbacks.Inc()
		return g.Analyze(cfg, ann)
	}
	tA := g.hAnalyze.StartTimer()
	defer g.hAnalyze.ObserveSince(tA)
	g.cIncr.Inc()
	if cfg.KPaths <= 0 {
		cfg.KPaths = 10
	}
	n := g.Netlist

	// Candidate gates: everything named by either annotation set. Sorted
	// so a failing evaluation surfaces the same error regardless of map
	// iteration order.
	var candidates []int
	for name := range base.ann {
		if gi, ok := g.byName[name]; ok {
			candidates = append(candidates, gi)
		}
	}
	for name := range ann {
		if _, dup := base.ann[name]; dup {
			continue // already collected from the baseline set
		}
		if gi, ok := g.byName[name]; ok {
			candidates = append(candidates, gi)
		}
	}
	sort.Ints(candidates)
	g.hIncrEvals.Observe(float64(len(candidates)))

	// Re-evaluate candidates; gates whose electrical view is unchanged do
	// not enter the dirty set.
	evals := make([]timinglib.Eval, len(base.evals))
	copy(evals, base.evals)
	gateDirty := make([]bool, len(n.Gates))
	loadDirty := make([]bool, len(g.netNames))
	var dirtyLoads []int
	for _, gi := range candidates {
		ev, err := g.evalGate(gi, ann)
		if err != nil {
			return nil, err
		}
		if evalEqual(ev, base.evals[gi]) {
			continue
		}
		evals[gi] = ev
		gateDirty[gi] = true
		// A changed input capacitance changes the load of every net this
		// gate sinks, which re-times their drivers. (The current device
		// model derives Cin from drawn geometry only, so this stays empty
		// under length annotations — but the engine must not assume that.)
		if !cinEqual(ev.CinFF, base.evals[gi].CinFF) {
			for _, pn := range g.inputs[gi] {
				if !loadDirty[pn.idx] {
					loadDirty[pn.idx] = true
					dirtyLoads = append(dirtyLoads, pn.idx)
				}
			}
		}
	}

	// Loads: shared with the baseline except where a sink capacitance
	// changed; dirty nets are recomputed with the same per-net summation
	// order as netLoads.
	loads := base.loads
	if len(dirtyLoads) > 0 {
		loads = make([]float64, len(base.loads))
		copy(loads, base.loads)
		for _, ni := range dirtyLoads {
			nl := g.netLoad(cfg, g.netNames[ni], g.connOf[ni], evals)
			if nl == base.loads[ni] {
				loadDirty[ni] = false // cap shift cancelled out: load clean
				continue
			}
			loads[ni] = nl
		}
	}

	// Arrivals: start from the baseline's (shared structs) and recompute
	// the dirty cone in topological order.
	arr := make([]*arrival, len(base.arr))
	copy(arr, base.arr)
	res := &Result{g: g, arr: arr, cfg: cfg, ann: ann, evals: evals, loads: loads}
	res.LeakNW = sumLeak(evals)

	dirtyNet := make([]bool, len(g.netNames))
	// Seeds: primary-input arrivals depend only on cfg (verified equal);
	// flop launches depend on the flop's evaluation and its Q-net load.
	for gi := range n.Gates {
		qi := g.outIdx[gi]
		if qi < 0 || (!gateDirty[gi] && !loadDirty[qi]) {
			continue
		}
		if ni, a, ok := g.launchArrival(gi, cfg, evals, loads); ok {
			if !arrivalEqual(a, base.arr[ni]) {
				arr[ni] = a
				dirtyNet[ni] = true
			}
		}
	}

	tP := g.hArrival.StartTimer()
	cone := 0
	for _, gi := range g.topo {
		oi := g.outIdx[gi]
		if oi < 0 || (!gateDirty[gi] && !loadDirty[oi] && !g.anyInputDirty(gi, dirtyNet)) {
			continue
		}
		cone++
		out := g.propagateGate(gi, evals[gi], loads[oi], arr)
		if !arrivalEqual(out, base.arr[oi]) {
			arr[oi] = out
			dirtyNet[oi] = true
		}
	}
	g.hArrival.ObserveSince(tP)
	g.hConeGates.Observe(float64(cone))

	if err := g.finish(res); err != nil {
		return nil, err
	}
	return res, nil
}

// Reasons incrementalOK gives for refusing a baseline.
const (
	refuseNilBaseline  = "nil baseline"
	refuseForeignGraph = "baseline from a different graph"
	refuseBlanket      = `blanket "*" annotation`
	refuseInputSlew    = "InputSlewPS differs"
	refusePrimaryLoad  = "PrimaryLoadFF differs"
	refuseWireLoads    = "WireLoads differ"
)

// incrementalOK returns "" when the baseline can seed an incremental
// re-analysis under the new config and annotations, and the reason it
// cannot otherwise.
func (g *Graph) incrementalOK(cfg Config, ann Annotations, base *Result) string {
	if base == nil {
		return refuseNilBaseline
	}
	// Only Analyze and AnalyzeIncremental on this graph set base.g, and
	// they always retain the arrival, eval and load state.
	if base.g != g {
		return refuseForeignGraph
	}
	if ann["*"] != nil || base.ann["*"] != nil {
		return refuseBlanket // blanket default touches every gate: cone is the chip
	}
	// Arrival-relevant boundary conditions must match; required-time knobs
	// (ClockPS, SetupPS, KPaths) are always recomputed and may differ.
	switch {
	case cfg.InputSlewPS != base.cfg.InputSlewPS:
		return refuseInputSlew
	case cfg.PrimaryLoadFF != base.cfg.PrimaryLoadFF:
		return refusePrimaryLoad
	case !wireLoadsEqual(cfg.WireLoads, base.cfg.WireLoads):
		return refuseWireLoads
	}
	return ""
}

func (g *Graph) anyInputDirty(gi int, dirtyNet []bool) bool {
	for _, pn := range g.inputs[gi] {
		if dirtyNet[pn.idx] {
			return true
		}
	}
	return false
}

// evalEqual reports whether two electrical views are bit-identical in
// every field STA reads.
func evalEqual(a, b timinglib.Eval) bool {
	if a.IRiseUA != b.IRiseUA || a.IFallUA != b.IFallUA ||
		a.RcRiseOhm != b.RcRiseOhm || a.RcFallOhm != b.RcFallOhm ||
		a.LeakNW != b.LeakNW {
		return false
	}
	return cinEqual(a.CinFF, b.CinFF)
}

func cinEqual(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for pin, v := range a {
		if w, ok := b[pin]; !ok || w != v {
			return false
		}
	}
	return true
}

// arrivalEqual compares every field downstream computation reads,
// including the backtrace predecessors.
func arrivalEqual(a, b *arrival) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.atR == b.atR && a.atF == b.atF &&
		a.slewR == b.slewR && a.slewF == b.slewF &&
		a.fromNetR == b.fromNetR && a.fromNetF == b.fromNetF &&
		a.fromRiseR == b.fromRiseR && a.fromRiseF == b.fromRiseF &&
		a.valid == b.valid
}

// wireLoadsEqual compares two wire-load maps entry for entry.
func wireLoadsEqual(a, b map[string]float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for net, v := range a {
		if w, ok := b[net]; !ok || w != v {
			return false
		}
	}
	return true
}
