package sta

import (
	"fmt"
	"math"
	"sort"

	"postopc/internal/stdcell"
)

// First-order canonical statistical STA: every delay and arrival is
//
//	value = Mean + SensU·u + SensD·d + ε,  ε ~ N(0, Rand2)
//
// where u is the normalized global focus severity and d the normalized
// dose deviation, shared by every gate on the die (fully correlated), and
// ε is per-arc independent. Sums propagate exactly; max uses Clark's
// moment matching. This is the "more rigorous statistical timing" the
// paper argues realistic CD distributions enable: the litho-systematic
// part stays correlated instead of being root-sum-squared away.
//
// The focus parameter u = (f/F)² follows a scaled χ²₁ when f ~ N(0, F/3):
// E[u] = 1/9, σ(u) = √2/9. Dose d = (dose−1)/Δd with dose ~ N(1, Δd/3)
// gives d ~ N(0, 1/3). Both are mildly non-Gaussian; Clark's formulas
// treat them as Gaussian, which the SSTA-vs-Monte-Carlo bench quantifies.

// Canonical is a first-order statistical quantity.
type Canonical struct {
	// Mean is the value at u = 0, d = 0 (best focus, nominal dose).
	Mean float64
	// SensU is the shift per unit of u (u = 1 at full window defocus).
	SensU float64
	// SensD is the shift per unit of normalized dose deviation.
	SensD float64
	// Rand2 is the variance of the independent part.
	Rand2 float64
}

// SSTAParams are the global-parameter moments.
type SSTAParams struct {
	MeanU, SigmaU float64
	SigmaD        float64
}

// DefaultSSTAParams matches the Monte Carlo sampling (focus ~ N(0, F/3),
// dose ~ N(1, Δd/3)).
func DefaultSSTAParams() SSTAParams {
	return SSTAParams{MeanU: 1.0 / 9, SigmaU: math.Sqrt2 / 9, SigmaD: 1.0 / 3}
}

// MeanTotal is the expectation over the parameter distributions.
func (c Canonical) MeanTotal(p SSTAParams) float64 {
	return c.Mean + c.SensU*p.MeanU
}

// Var is the total variance.
func (c Canonical) Var(p SSTAParams) float64 {
	return sq(c.SensU*p.SigmaU) + sq(c.SensD*p.SigmaD) + c.Rand2
}

// Sigma is the total standard deviation.
func (c Canonical) Sigma(p SSTAParams) float64 { return math.Sqrt(c.Var(p)) }

// Quantile returns the Gaussian-approximated q-quantile (e.g. 0.001 for
// the slow tail of a slack).
func (c Canonical) Quantile(p SSTAParams, z float64) float64 {
	return c.MeanTotal(p) + z*c.Sigma(p)
}

func (c Canonical) add(o Canonical) Canonical {
	return Canonical{
		Mean:  c.Mean + o.Mean,
		SensU: c.SensU + o.SensU,
		SensD: c.SensD + o.SensD,
		Rand2: c.Rand2 + o.Rand2,
	}
}

// cmax is Clark's statistical maximum of two canonicals.
func cmax(a, b Canonical, p SSTAParams) Canonical {
	muA, muB := a.MeanTotal(p), b.MeanTotal(p)
	varA, varB := a.Var(p), b.Var(p)
	cov := a.SensU*b.SensU*sq(p.SigmaU) + a.SensD*b.SensD*sq(p.SigmaD)
	theta2 := varA + varB - 2*cov
	if theta2 < 1e-12 {
		// (Nearly) perfectly correlated: the larger mean dominates.
		if muA >= muB {
			return a
		}
		return b
	}
	theta := math.Sqrt(theta2)
	alpha := (muA - muB) / theta
	t := phiCDF(alpha)
	pdf := phiPDF(alpha)
	mean := muA*t + muB*(1-t) + theta*pdf
	second := (varA+muA*muA)*t + (varB+muB*muB)*(1-t) + (muA+muB)*theta*pdf
	variance := second - mean*mean
	out := Canonical{
		SensU: t*a.SensU + (1-t)*b.SensU,
		SensD: t*a.SensD + (1-t)*b.SensD,
	}
	out.Mean = mean - out.SensU*p.MeanU
	rand2 := variance - sq(out.SensU*p.SigmaU) - sq(out.SensD*p.SigmaD)
	if rand2 > 0 {
		out.Rand2 = rand2
	}
	return out
}

func phiPDF(x float64) float64 { return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi) }
func phiCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

func sq(v float64) float64 { return v * v }

// CanonicalArcs supplies the statistical delay of every arc. The flow
// builds this from the per-gate variation model; loadFF and inSlewPS are
// the deterministic (nominal) load and slew at the arc.
type CanonicalArcs interface {
	// Arc returns the arc delay canonical and the nominal output slew.
	Arc(gate string, outRise bool, loadFF, inSlewPS float64) (Canonical, float64)
	// Launch returns the clk->Q canonical for a sequential cell.
	Launch(gate string, outRise bool, loadFF, inSlewPS float64) (Canonical, float64)
}

// SSTAEndpoint is one endpoint's statistical slack.
type SSTAEndpoint struct {
	// Name as in the deterministic analysis.
	Name string
	// Slack is the canonical slack (required − arrival).
	Slack Canonical
}

// SSTAResult is the statistical analysis outcome.
type SSTAResult struct {
	// Endpoints sorted by ascending mean slack.
	Endpoints []SSTAEndpoint
	// WNS is the canonical worst slack (statistical min over endpoints).
	WNS Canonical
	// Params echoes the parameter moments used.
	Params SSTAParams
}

// AnalyzeSSTA propagates canonical arrivals through the graph. Loads and
// slews are frozen at their nominal values (the standard first-order SSTA
// simplification); unateness and topology follow the deterministic engine.
func (g *Graph) AnalyzeSSTA(cfg Config, params SSTAParams, arcs CanonicalArcs) (*SSTAResult, error) {
	if arcs == nil {
		return nil, fmt.Errorf("sta: SSTA needs a CanonicalArcs model")
	}
	if err := cfg.check(); err != nil {
		return nil, err
	}
	n := g.Netlist
	// Net loads as the deterministic engine computes them (input caps are
	// annotation-independent in this library). netLoads applies the
	// WireLoads partial-map contract: nets absent from a non-nil map fall
	// back to the flat per-gate-sink CWireFF instead of zero wire
	// capacitance.
	loads := g.netLoads(cfg)

	// Canonical arrivals, net-indexed; the zero value is a net no arrival
	// reaches.
	type cArr struct {
		r, f           Canonical
		slewR, slewF   float64
		validR, validF bool
	}
	arr := make([]cArr, len(g.netNames))
	for _, in := range n.Inputs {
		if ni, ok := g.netIdx[in]; ok {
			arr[ni] = cArr{slewR: inputSlewPS, slewF: inputSlewPS, validR: true, validF: true}
		}
	}
	for gi, gate := range n.Gates {
		qi := g.outIdx[gi]
		if g.cells[gi].Kind != stdcell.Seq || qi < 0 {
			continue
		}
		cR, sR := arcs.Launch(gate.Name, true, loads[qi], inputSlewPS)
		cF, sF := arcs.Launch(gate.Name, false, loads[qi], inputSlewPS)
		arr[qi] = cArr{r: cR, f: cF, slewR: sR, slewF: sF, validR: true, validF: true}
	}

	// Inputs are merged in the sorted pin order Build prepared: Clark's
	// max is not bit-symmetric in its operands, so the order is part of
	// the result.
	for _, gi := range g.topo {
		oi := g.outIdx[gi]
		if oi < 0 {
			continue // dangling output: nothing downstream to time
		}
		gate := n.Gates[gi]
		cell := g.cells[gi]
		load := loads[oi]
		var out cArr
		merge := func(rise bool, c Canonical, slew float64) {
			if rise {
				if !out.validR {
					out.r, out.slewR, out.validR = c, slew, true
				} else {
					out.r = cmax(out.r, c, params)
					if slew > out.slewR {
						out.slewR = slew
					}
				}
			} else {
				if !out.validF {
					out.f, out.slewF, out.validF = c, slew, true
				} else {
					out.f = cmax(out.f, c, params)
					if slew > out.slewF {
						out.slewF = slew
					}
				}
			}
		}
		for _, pn := range g.inputs[gi] {
			in := &arr[pn.idx]
			consider := func(inRise bool, inArr Canonical, inSlew float64, valid bool) {
				if !valid {
					return
				}
				for _, outRise := range outSenses(cell.Unate, inRise) {
					d, os := arcs.Arc(gate.Name, outRise, load, inSlew)
					merge(outRise, inArr.add(d), os)
				}
			}
			consider(true, in.r, in.slewR, in.validR)
			consider(false, in.f, in.slewF, in.validF)
		}
		arr[oi] = out
	}

	res := &SSTAResult{Params: params}
	neg := func(c Canonical) Canonical {
		return Canonical{Mean: -c.Mean, SensU: -c.SensU, SensD: -c.SensD, Rand2: c.Rand2}
	}
	for _, ref := range g.endpoints {
		a := &arr[ref.net]
		if !a.validR && !a.validF {
			continue
		}
		var worst Canonical
		switch {
		case a.validR && a.validF:
			worst = cmax(a.r, a.f, params)
		case a.validR:
			worst = a.r
		default:
			worst = a.f
		}
		required := cfg.ClockPS
		if ref.flop {
			required = cfg.ClockPS - setupPS
		}
		slack := Canonical{Mean: required}.add(neg(worst))
		res.Endpoints = append(res.Endpoints, SSTAEndpoint{Name: ref.name, Slack: slack})
	}
	if len(res.Endpoints) == 0 {
		return nil, fmt.Errorf("sta: SSTA found no constrained endpoints")
	}
	sort.Slice(res.Endpoints, func(i, j int) bool {
		return res.Endpoints[i].Slack.MeanTotal(params) < res.Endpoints[j].Slack.MeanTotal(params)
	})
	// Statistical WNS: min over endpoint slacks = −max(−slacks).
	worstNeg := neg(res.Endpoints[0].Slack)
	for _, ep := range res.Endpoints[1:] {
		worstNeg = cmax(worstNeg, neg(ep.Slack), params)
	}
	res.WNS = neg(worstNeg)
	return res, nil
}
