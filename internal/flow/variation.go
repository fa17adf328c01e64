package flow

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"postopc/internal/layout"
	"postopc/internal/litho"
	"postopc/internal/obs"
	"postopc/internal/par"
	"postopc/internal/sta"
	"postopc/internal/timinglib"
)

// VariationCorners returns the extraction corners needed to fit the
// per-gate variation response: nominal, max defocus, and the two dose
// extremes — in that fixed order.
func VariationCorners(pw litho.ProcessWindow) []litho.Corner {
	return []litho.Corner{
		litho.Nominal,
		{DefocusNM: pw.DefocusNM, Dose: 1},
		{DefocusNM: 0, Dose: 1 - pw.DoseFrac},
		{DefocusNM: 0, Dose: 1 + pw.DoseFrac},
	}
}

// siteResponse is the fitted per-transistor CD response:
// EL(f, dose) = EL0 + dF2·(f/F)² + dDose·(dose−1)/Δd, for delay and leak.
type siteResponse struct {
	delay0, leak0       float64
	dDelayF2, dLeakF2   float64
	dDelayDose, dLeakDo float64
	drawn               float64
}

// VariationModel maps process excursions to per-gate effective-length
// annotations — the "realistic CD distribution" replacing worst-case
// corner assumptions in Monte Carlo timing.
type VariationModel struct {
	// PW is the process window the model was fitted over.
	PW litho.ProcessWindow
	// RandSigmaNM is the per-site random (non-litho) CD sigma.
	RandSigmaNM float64
	// Obs, when non-nil, receives Monte Carlo telemetry: an
	// "sta.mc_samples_total" counter, a "flow.montecarlo" span and
	// per-worker scheduler metrics. Write-only; never changes a sample.
	Obs *obs.Sink

	sites map[string]map[string]siteResponse // gate -> local site -> fit
}

// BuildVariationModel fits the response model from extractions performed at
// VariationCorners(pw).
func BuildVariationModel(extrs map[string]*GateExtraction, pw litho.ProcessWindow, randSigmaNM float64) (*VariationModel, error) {
	vm := &VariationModel{PW: pw, RandSigmaNM: randSigmaNM, sites: map[string]map[string]siteResponse{}}
	for name, ext := range extrs {
		m := map[string]siteResponse{}
		for _, s := range ext.Sites {
			if len(s.PerCorner) < 4 {
				return nil, fmt.Errorf("flow: gate %s site %s extracted at %d corners, need 4 (VariationCorners order)",
					name, s.LocalName, len(s.PerCorner))
			}
			c0, cf, cdm, cdp := s.PerCorner[0], s.PerCorner[1], s.PerCorner[2], s.PerCorner[3]
			if !c0.Printed {
				continue // pinched at nominal: no annotation (drawn fallback)
			}
			r := siteResponse{
				delay0: c0.DelayEL, leak0: c0.LeakEL, drawn: s.DrawnL,
			}
			if cf.Printed {
				r.dDelayF2 = cf.DelayEL - c0.DelayEL
				r.dLeakF2 = cf.LeakEL - c0.LeakEL
			}
			if cdm.Printed && cdp.Printed {
				r.dDelayDose = (cdp.DelayEL - cdm.DelayEL) / 2
				r.dLeakDo = (cdp.LeakEL - cdm.LeakEL) / 2
			}
			m[s.LocalName] = r
		}
		vm.sites[name] = m
	}
	return vm, nil
}

// eval computes the lengths of one site at a process point. fNorm = f/F
// (clamped to ±1.5), doseNorm = (dose−1)/Δd (clamped to ±1.5), dRand is
// the site's random CD offset in nm.
func (r siteResponse) eval(fNorm, doseNorm, dRand float64) timinglib.Lengths {
	f2 := fNorm * fNorm
	d := r.delay0 + r.dDelayF2*f2 + r.dDelayDose*doseNorm + dRand
	l := r.leak0 + r.dLeakF2*f2 + r.dLeakDo*doseNorm + dRand
	if d < 5 {
		d = 5
	}
	if l < 5 {
		l = 5
	}
	return timinglib.Lengths{DelayL: d, LeakL: l}
}

// Annotations evaluates the model at a process point. Each site draws its
// own random CD offset from rnd (pass nil for no random component).
func (vm *VariationModel) Annotations(focusNM, dose float64, rnd *rand.Rand) sta.Annotations {
	fNorm := clampF(focusNM/nonzero(vm.PW.DefocusNM), 1.5)
	doseNorm := clampF((dose-1)/nonzero(vm.PW.DoseFrac), 1.5)
	ann := sta.Annotations{}
	// Deterministic iteration so equal seeds give identical samples.
	for _, gate := range vm.gateNames() {
		m := vm.sites[gate]
		lengths := map[string]timinglib.Lengths{}
		for _, local := range sortedKeys(m) {
			var dr float64
			if rnd != nil {
				dr = rnd.NormFloat64() * vm.RandSigmaNM
			}
			lengths[local] = m[local].eval(fNorm, doseNorm, dr)
		}
		ann[gate] = lookupOrDrawn(lengths)
	}
	return ann
}

func (vm *VariationModel) gateNames() []string {
	out := make([]string, 0, len(vm.sites))
	for g := range vm.sites {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

func sortedKeys(m map[string]siteResponse) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SlowCorner builds the classic pessimistic guardband annotation: every
// site at its maximum delay length across the window extremes plus kSigma
// of random variation — simultaneously, everywhere.
func (vm *VariationModel) SlowCorner(kSigma float64) sta.Annotations {
	ann := sta.Annotations{}
	for gate, m := range vm.sites {
		lengths := map[string]timinglib.Lengths{}
		for local, r := range m {
			worst := r.delay0
			worstLeak := r.leak0
			for _, fn := range []float64{0, 1} {
				for _, dn := range []float64{-1, 0, 1} {
					l := r.eval(fn, dn, 0)
					worst = math.Max(worst, l.DelayL)
					worstLeak = math.Max(worstLeak, l.LeakL)
				}
			}
			lengths[local] = timinglib.Lengths{
				DelayL: worst + kSigma*vm.RandSigmaNM,
				LeakL:  worstLeak + kSigma*vm.RandSigmaNM,
			}
		}
		ann[gate] = lookupOrDrawn(lengths)
	}
	return ann
}

// FastCorner is the symmetric optimistic corner (minimum delay lengths −
// kSigma random), used for leakage-dominated analyses.
func (vm *VariationModel) FastCorner(kSigma float64) sta.Annotations {
	ann := sta.Annotations{}
	for gate, m := range vm.sites {
		lengths := map[string]timinglib.Lengths{}
		for local, r := range m {
			best := r.delay0
			bestLeak := r.leak0
			for _, fn := range []float64{0, 1} {
				for _, dn := range []float64{-1, 0, 1} {
					l := r.eval(fn, dn, 0)
					best = math.Min(best, l.DelayL)
					bestLeak = math.Min(bestLeak, l.LeakL)
				}
			}
			lengths[local] = timinglib.Lengths{
				DelayL: math.Max(5, best-kSigma*vm.RandSigmaNM),
				LeakL:  math.Max(5, bestLeak-kSigma*vm.RandSigmaNM),
			}
		}
		ann[gate] = lookupOrDrawn(lengths)
	}
	return ann
}

func lookupOrDrawn(lengths map[string]timinglib.Lengths) timinglib.Annotator {
	return func(site layout.GateSite) timinglib.Lengths {
		if l, ok := lengths[site.Name]; ok {
			return l
		}
		return timinglib.Drawn(site)
	}
}

func clampF(v, lim float64) float64 {
	if v > lim {
		return lim
	}
	if v < -lim {
		return -lim
	}
	return v
}

func nonzero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// MCResult is the Monte Carlo timing outcome.
type MCResult struct {
	// WNS samples (ps), sorted ascending.
	WNS []float64
	// Leak samples (nW), parallel to WNS draws (unsorted pairing is not
	// preserved; Leak is sorted too).
	Leak []float64
	// MeanWNS, StdWNS summarize the distribution.
	MeanWNS, StdWNS float64
}

// Percentile returns the p-quantile (0..1) of the WNS distribution by
// linear interpolation between order statistics. Truncating the fractional
// rank (the previous behaviour) biased every reported quantile toward the
// lower order statistic.
func (m MCResult) Percentile(p float64) float64 {
	n := len(m.WNS)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return m.WNS[0]
	}
	if p >= 1 {
		return m.WNS[n-1]
	}
	x := p * float64(n-1)
	i := int(x)
	if i >= n-1 {
		return m.WNS[n-1]
	}
	frac := x - float64(i)
	return m.WNS[i] + frac*(m.WNS[i+1]-m.WNS[i])
}

// MonteCarlo samples process excursions (focus ~ N(0, F/3), dose ~
// N(1, Δd/3), per-site random CD ~ N(0, σ)) and times each sample by
// incremental re-analysis from one nominal baseline, fanning samples out
// over up to GOMAXPROCS workers. See MonteCarloWorkers for the incremental
// scheme, the determinism contract and explicit worker control.
func (vm *VariationModel) MonteCarlo(g *sta.Graph, cfg sta.Config, samples int, seed int64) (MCResult, error) {
	return vm.MonteCarloWorkers(g, cfg, samples, seed, 0)
}

// MonteCarloWorkers is MonteCarlo with an explicit worker bound
// (0 = GOMAXPROCS, 1 = serial).
//
// Every sample annotates the same gates, the model's, so the model's
// nominal annotation set is analyzed in full once and each sample runs
// Graph.AnalyzeIncremental from it: it re-evaluates only the model's gates
// and re-propagates only their fan-out cone, bit-identical to a full
// Analyze. A sample reads only WNS and LeakNW, so every analysis runs at
// KPaths 1.
//
// The result depends only on the seed, never on the worker count: each
// sample's RNG stream is seeded up front from a master stream over the
// given seed, samples are merged in sample order, and only then are the
// WNS/Leak distributions sorted.
func (vm *VariationModel) MonteCarloWorkers(g *sta.Graph, cfg sta.Config, samples int, seed int64, workers int) (MCResult, error) {
	var out MCResult
	if samples <= 0 {
		return out, nil
	}
	master := rand.New(rand.NewSource(seed))
	seeds := make([]int64, samples)
	for s := range seeds {
		seeds[s] = master.Int63()
	}
	sp := vm.Obs.Start("flow.montecarlo")
	defer sp.End()
	cfg.KPaths = 1
	base, err := g.Analyze(cfg, vm.Annotations(0, 1, nil))
	if err != nil {
		return out, err
	}
	cSamples := vm.Obs.Counter("sta.mc_samples_total")
	wns := make([]float64, samples)
	leak := make([]float64, samples)
	err = par.ForEach(samples, func(s int) error {
		rnd := rand.New(rand.NewSource(seeds[s]))
		f := rnd.NormFloat64() * vm.PW.DefocusNM / 3
		d := 1 + rnd.NormFloat64()*vm.PW.DoseFrac/3
		res, err := g.AnalyzeIncremental(cfg, vm.Annotations(f, d, rnd), base)
		if err != nil {
			return err
		}
		cSamples.Inc()
		wns[s], leak[s] = res.WNS, res.LeakNW
		return nil
	}, par.Workers(workers), par.Obs(vm.Obs))
	if err != nil {
		return out, err
	}
	out.WNS, out.Leak = wns, leak
	sort.Float64s(out.WNS)
	sort.Float64s(out.Leak)
	var sum float64
	for _, v := range out.WNS {
		sum += v
	}
	out.MeanWNS = sum / float64(len(out.WNS))
	var ss float64
	for _, v := range out.WNS {
		ss += (v - out.MeanWNS) * (v - out.MeanWNS)
	}
	out.StdWNS = math.Sqrt(ss / float64(len(out.WNS)))
	return out, nil
}
