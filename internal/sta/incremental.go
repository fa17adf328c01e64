package sta

import (
	"math/bits"
	"slices"

	"postopc/internal/stdcell"
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
//   - Evals and arrivals start as a copy of the baseline's. A changed
//     gate marks its own topological position, and a net whose arrival
//     changed marks every combinational gate it feeds; the walk visits only
//     marked positions, lowest first, so the cone is recomputed in
//     topological order. A recomputed arrival that matches the baseline
//     stops the cone there.
//   - Loads depend only on the WireLoads checked below, so the result
//     shares the baseline's. Leakage is re-summed in the same gate
//     order as Analyze so the total carries identical floating-point
//     rounding.
//
// The baseline must have been analyzed under the same WireLoads, the only
// arrival-relevant boundary condition in Config. ClockPS and KPaths may
// differ — they only shape required times and path reporting, which are
// always recomputed. When the baseline is unusable — nil, from a different
// graph, under different WireLoads, or when either annotation set carries
// the "*" blanket default (which touches every gate) — AnalyzeIncremental
// falls back to a full Analyze and counts the fallback in
// "sta.incremental_fallbacks_total" and in the counter of its reason,
// "sta.incremental_fallbacks_<reason>_total" (see fallbackReasonNames).
// Telemetry: "sta.incremental_analyses_total", "sta.incremental_gate_evals"
// (candidates re-evaluated) and "sta.incremental_cone_gates" (arrivals
// recomputed). Non-finite boundary conditions and annotated lengths fail as
// they do in Analyze.
func (g *Graph) AnalyzeIncremental(cfg Config, ann Annotations, base *Result) (*Result, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if g.refuse(cfg, ann, base) {
		return g.Analyze(cfg, ann)
	}
	res := &Result{}
	if err := g.reanalyze(cfg, ann, base, res, &cone{}); err != nil {
		return nil, err
	}
	return res, nil
}

// cone is the cone walk's scratch: the candidate gates and one mark bit
// per topological position. A walk leaves every mark clear, so one cone
// serves any number of analyses in turn.
type cone struct {
	cands  []int
	marks  []uint64
	lo, hi int // range of words holding marks
}

// mark marks topological position p.
func (c *cone) mark(p int32) {
	w := int(p >> 6)
	c.marks[w] |= 1 << (p & 63)
	c.lo, c.hi = min(c.lo, w), max(c.hi, w)
}

// reanalyze is the cone engine behind AnalyzeIncremental and MonteCarlo:
// it overwrites res with the analysis of ann seeded from base, which the
// caller has checked with refuse. res's evals, arrivals, endpoints and
// paths are reused when their capacity allows; c is the walk's scratch.
func (g *Graph) reanalyze(cfg Config, ann Annotations, base, res *Result, c *cone) error {
	tA := g.hAnalyze.StartTimer()
	defer g.hAnalyze.ObserveSince(tA)
	g.cIncr.Inc()
	if cfg.KPaths <= 0 {
		cfg.KPaths = 10
	}
	res.g, res.cfg, res.ann, res.loads = g, cfg, ann, base.loads
	res.evals = append(res.evals[:0], base.evals...)
	res.arr = append(res.arr[:0], base.arr...)

	// Candidate gates: everything named by either annotation set. Sorted
	// so a failing evaluation surfaces the same error regardless of map
	// iteration order.
	cands := c.cands[:0]
	for name := range base.ann {
		if gi, ok := g.byName[name]; ok {
			cands = append(cands, gi)
		}
	}
	for name := range ann {
		if _, dup := base.ann[name]; dup {
			continue // already collected from the baseline set
		}
		if gi, ok := g.byName[name]; ok {
			cands = append(cands, gi)
		}
	}
	slices.Sort(cands)
	c.cands = cands
	g.hIncrEvals.Observe(float64(len(cands)))

	// Re-evaluate candidates, keeping only those whose electrical view
	// changed.
	dirty := cands[:0]
	for _, gi := range cands {
		ev, err := g.evalGate(gi, ann)
		if err != nil {
			return err
		}
		if ev != base.evals[gi] {
			res.evals[gi] = ev
			dirty = append(dirty, gi)
		}
	}
	res.LeakNW = sumLeak(res.evals)

	// Seeds: primary-input arrivals are the same in every analysis; a
	// flop launch depends on the flop's evaluation and its Q-net load.
	if c.marks == nil {
		c.marks = make([]uint64, (len(g.topo)+63)/64)
	}
	c.lo, c.hi = len(c.marks), -1
	for _, gi := range dirty {
		if p := g.topoPos[gi]; p >= 0 {
			c.mark(p)
			continue
		}
		qi := g.outIdx[gi]
		if qi < 0 || g.cells[gi].Kind != stdcell.Seq {
			continue
		}
		if a := g.launchArrival(res.evals[gi], res.loads[qi]); a != base.arr[qi] {
			res.arr[qi] = a
			g.markFanout(c, qi)
		}
	}

	tP := g.hArrival.StartTimer()
	n := 0
	for w := c.lo; w <= c.hi; w++ {
		for c.marks[w] != 0 {
			b := bits.TrailingZeros64(c.marks[w])
			c.marks[w] &^= 1 << b
			gi := g.topo[w<<6|b]
			oi := g.outIdx[gi]
			if oi < 0 {
				continue
			}
			n++
			if out := g.propagateGate(gi, res.evals[gi], res.loads[oi], res.arr); out != base.arr[oi] {
				res.arr[oi] = out
				g.markFanout(c, oi)
			}
		}
	}
	g.hArrival.ObserveSince(tP)
	g.hConeGates.Observe(float64(n))
	return g.finish(res)
}

// markFanout marks the combinational gates net ni feeds.
func (g *Graph) markFanout(c *cone, ni int) {
	for _, p := range g.fanout[ni] {
		c.mark(p)
	}
}

// refuse reports whether base cannot seed an incremental analysis under
// cfg and ann, counting the fallback to a full Analyze if so.
func (g *Graph) refuse(cfg Config, ann Annotations, base *Result) bool {
	r := g.incrementalOK(cfg, ann, base)
	if r == baselineOK {
		return false
	}
	g.cFallbacks.Inc()
	g.cFallbackBy[r].Inc()
	return true
}

// fallbackReason is incrementalOK's verdict on a baseline: baselineOK, or
// the reason AnalyzeIncremental must fall back to a full Analyze.
type fallbackReason int

const (
	baselineOK         fallbackReason = iota
	refuseNilBaseline                 // no baseline
	refuseForeignGraph                // baseline from a different graph
	refuseBlanket                     // a blanket "*" annotation
	refuseWireLoads                   // WireLoads differ
	numFallbackReasons
)

// fallbackReasonNames name each reason's counter,
// "sta.incremental_fallbacks_<name>_total".
var fallbackReasonNames = [numFallbackReasons]string{
	refuseNilBaseline:  "nil_baseline",
	refuseForeignGraph: "foreign_graph",
	refuseBlanket:      "blanket",
	refuseWireLoads:    "wire_loads",
}

// incrementalOK returns baselineOK when the baseline can seed an
// incremental re-analysis under the new config and annotations, and the
// reason it cannot otherwise.
func (g *Graph) incrementalOK(cfg Config, ann Annotations, base *Result) fallbackReason {
	if base == nil {
		return refuseNilBaseline
	}
	// Only analyses on this graph set base.g, and they always retain the
	// arrival, eval and load state.
	if base.g != g {
		return refuseForeignGraph
	}
	if ann["*"] != nil || base.ann["*"] != nil {
		return refuseBlanket // blanket default touches every gate: cone is the chip
	}
	// The arrival-relevant boundary condition must match; required-time
	// knobs (ClockPS, KPaths) are always recomputed and may differ.
	if !wireLoadsEqual(cfg.WireLoads, base.cfg.WireLoads) {
		return refuseWireLoads
	}
	return baselineOK
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
