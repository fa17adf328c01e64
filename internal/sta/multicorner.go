package sta

import (
	"fmt"
	"runtime"
	"slices"
	"sort"

	"postopc/internal/obs"
	"postopc/internal/par"
	"postopc/internal/timinglib"
)

// CornerSpec is one process corner of a multi-corner analysis: a
// human-readable name and the annotation set describing timing at that
// process condition (e.g. VariationModel.Annotations evaluated at one
// (defocus, dose) grid point).
type CornerSpec struct {
	// Name labels the corner in merged reports ("f+80/d0.950").
	Name string
	// Ann are the corner's per-gate annotations.
	Ann Annotations
}

// MultiCornerOptions configure MultiCorner.
type MultiCornerOptions struct {
	// Workers bounds corner-level concurrency (0 = GOMAXPROCS,
	// 1 = serial). Results are identical for any value.
	Workers int
	// Full forces a full Analyze at every corner instead of incremental
	// re-analysis seeded from the first corner's baseline. Results are
	// bit-identical either way; Full exists for ablation benches and as an
	// escape hatch.
	Full bool
	// Obs receives corner fan-out scheduler telemetry (par.* series).
	// Per-analysis telemetry flows through Graph.Instrument as usual.
	Obs *obs.Sink
}

// CornerResult pairs one corner with its full analysis.
type CornerResult struct {
	// Name is the corner's label.
	Name string
	// Res is the corner's complete Result.
	Res *Result
}

// MergedEndpoint is one endpoint's worst case across the corner set.
type MergedEndpoint struct {
	// Name identifies the endpoint (see Endpoint.Name).
	Name string
	// SlackPS is the worst (minimum) slack across corners.
	SlackPS float64
	// ArrivalPS and RequiredPS are taken at the dominant corner.
	ArrivalPS, RequiredPS float64
	// Corner is the dominant corner: the first corner (in input order)
	// attaining the worst slack.
	Corner string
}

// MultiCornerResult is the merged outcome of a multi-corner analysis.
type MultiCornerResult struct {
	// Corners holds the per-corner analyses, in input order.
	Corners []CornerResult
	// Merged holds every endpoint's worst case across corners, sorted by
	// ascending slack then name (critical first).
	Merged []MergedEndpoint
	// WNS is the process-window worst slack (min over Merged).
	WNS float64
	// TNS is the total negative merged slack (ps, <= 0): each endpoint
	// counted once, at its worst corner.
	TNS float64
}

// MultiCorner analyzes the graph at every corner of the set and merges the
// outcome: per-endpoint worst slack across corners with dominant-corner
// tagging, plus the per-corner analyses for drill-down.
//
// The first corner is analyzed in full and seeds incremental re-analysis
// of the rest (see AnalyzeIncremental), fanned out corner-parallel on the
// deterministic worker pool; put the nominal corner first so the deltas
// the incremental engine prunes are smallest. The merged output is
// bit-identical for any worker count and with Full either way.
func (g *Graph) MultiCorner(cfg Config, corners []CornerSpec, opt MultiCornerOptions) (*MultiCornerResult, error) {
	if len(corners) == 0 {
		return nil, fmt.Errorf("sta: MultiCorner needs at least one corner")
	}
	g.cCorners.Add(uint64(len(corners)))
	results := make([]*Result, len(corners))
	base, err := g.Analyze(cfg, corners[0].Ann)
	if err != nil {
		return nil, fmt.Errorf("sta: corner %s: %w", corners[0].Name, err)
	}
	results[0] = base
	rest, restCorners := results[1:], corners[1:]
	err = par.ForEach(len(restCorners), func(i int) error {
		var r *Result
		var err error
		if opt.Full {
			r, err = g.Analyze(cfg, restCorners[i].Ann)
		} else {
			r, err = g.AnalyzeIncremental(cfg, restCorners[i].Ann, base)
		}
		if err != nil {
			return fmt.Errorf("sta: corner %s: %w", restCorners[i].Name, err)
		}
		rest[i] = r
		return nil
	}, par.Workers(opt.Workers), par.Obs(opt.Obs))
	if err != nil {
		return nil, err
	}
	return mergeCorners(corners, results), nil
}

// MonteCarloOptions configure MonteCarlo.
type MonteCarloOptions struct {
	// Workers bounds sample-level concurrency (0 = GOMAXPROCS,
	// 1 = serial). Results are identical for any value.
	Workers int
	// Obs receives sample fan-out scheduler telemetry (par.* series).
	// Per-analysis telemetry flows through Graph.Instrument as usual.
	Obs *obs.Sink
}

// mcWorker is one pool slot's Monte Carlo state: the slot's sample
// annotations, and evals and arrivals that equal the baseline's except
// where the cone record says the slot's last sample wrote.
type mcWorker struct {
	ann   func(i int) Annotations
	evals []timinglib.Eval
	arr   []arrival
	cone  cone
}

// restore returns the worker's evals and arrivals to base's: a full copy
// before the slot's first sample, after that only the indices the last
// walk recorded. The record is sized for every gate and net up front, so
// no later sample grows it.
func (w *mcWorker) restore(base *Result) {
	if w.evals == nil {
		w.evals, w.arr = slices.Clone(base.evals), slices.Clone(base.arr)
		w.cone.gates, w.cone.nets = make([]int, 0, len(w.evals)), make([]int, 0, len(w.arr))
		return
	}
	for _, gi := range w.cone.gates {
		w.evals[gi] = base.evals[gi]
	}
	for _, ni := range w.cone.nets {
		w.arr[ni] = base.arr[ni]
	}
	w.cone.gates, w.cone.nets = w.cone.gates[:0], w.cone.nets[:0]
}

// MonteCarlo times n samples against one baseline and returns each
// sample's WNS and LeakNW in sample order. ann is called once per worker
// slot, from that slot, and returns the slot's sample annotations: sample
// i is the analysis of the slot's ann(i), which may reuse one annotation
// set from sample to sample. Each sample's two numbers are bit-identical
// to those of AnalyzeIncremental(cfg, ann(i), base), a refused baseline
// included (counted, and answered by a full Analyze).
//
// Samples fan out over the deterministic worker pool. A sample costs only
// its candidates' evaluations and its fan-out cone: the slot's state holds
// the baseline's evals and arrivals, a sample first restores the indices
// the slot's previous sample wrote (see mcWorker.restore), runs the cone
// walk shared with AnalyzeIncremental, and ends with one scan for the
// worst slack instead of finish's endpoint sort and path backtrace. Once
// each slot has grown its state, a sample allocates nothing here.
// Non-finite boundary conditions and annotated lengths fail as they do in
// Analyze.
func (g *Graph) MonteCarlo(cfg Config, base *Result, n int, ann func() func(i int) Annotations, opt MonteCarloOptions) (wns, leak []float64, err error) {
	if n <= 0 {
		return nil, nil, nil
	}
	if err := cfg.check(); err != nil {
		return nil, nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	state := make([]*mcWorker, workers)
	wns, leak = make([]float64, n), make([]float64, n)
	err = par.ForEachWorker(n, func(w, i int) error {
		st := state[w]
		if st == nil {
			st = &mcWorker{ann: ann()}
			state[w] = st
		}
		a := st.ann(i)
		if g.refuse(cfg, a, base) {
			r, err := g.Analyze(cfg, a)
			if err != nil {
				return err
			}
			wns[i], leak[i] = r.WNS, r.LeakNW
			return nil
		}
		var err error
		wns[i], leak[i], err = g.sample(cfg, a, base, st)
		return err
	}, par.Workers(workers), par.Obs(opt.Obs))
	if err != nil {
		return nil, nil, err
	}
	return wns, leak, nil
}

// sample analyzes one Monte Carlo sample in a worker's state: restore,
// the cone walk, and worstSlack as the ending.
func (g *Graph) sample(cfg Config, ann Annotations, base *Result, st *mcWorker) (wns, leak float64, err error) {
	tA := g.hAnalyze.StartTimer()
	defer g.hAnalyze.ObserveSince(tA)
	st.restore(base)
	if leak, err = g.walk(ann, base, st.evals, st.arr, &st.cone); err != nil {
		return 0, 0, err
	}
	wns, err = g.worstSlack(st.arr, cfg.ClockPS)
	return wns, leak, err
}

// mergeCorners folds per-corner analyses into the worst-case view. Every
// corner analyzes the same graph under the same boundary conditions, so
// the endpoint sets agree; an endpoint is tagged with the first corner (in
// input order) that attains its minimum slack.
func mergeCorners(corners []CornerSpec, results []*Result) *MultiCornerResult {
	out := &MultiCornerResult{}
	idx := map[string]int{}
	for ci, r := range results {
		out.Corners = append(out.Corners, CornerResult{Name: corners[ci].Name, Res: r})
		for _, ep := range r.Endpoints {
			j, ok := idx[ep.Name]
			if !ok {
				idx[ep.Name] = len(out.Merged)
				out.Merged = append(out.Merged, MergedEndpoint{
					Name: ep.Name, SlackPS: ep.SlackPS,
					ArrivalPS: ep.ArrivalPS, RequiredPS: ep.RequiredPS,
					Corner: corners[ci].Name,
				})
				continue
			}
			if m := &out.Merged[j]; ep.SlackPS < m.SlackPS {
				m.SlackPS, m.ArrivalPS, m.RequiredPS = ep.SlackPS, ep.ArrivalPS, ep.RequiredPS
				m.Corner = corners[ci].Name
			}
		}
	}
	sort.Slice(out.Merged, func(i, j int) bool {
		if out.Merged[i].SlackPS != out.Merged[j].SlackPS {
			return out.Merged[i].SlackPS < out.Merged[j].SlackPS
		}
		return out.Merged[i].Name < out.Merged[j].Name
	})
	out.WNS = out.Merged[0].SlackPS
	for _, m := range out.Merged {
		if m.SlackPS < 0 {
			out.TNS += m.SlackPS
		}
	}
	return out
}

// DominantCorners counts how many endpoints each corner dominates, keyed
// by corner name — the "which corner sets sign-off" summary.
func (m *MultiCornerResult) DominantCorners() map[string]int {
	out := map[string]int{}
	for _, ep := range m.Merged {
		out[ep.Corner]++
	}
	return out
}
