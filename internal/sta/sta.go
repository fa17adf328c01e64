// Package sta is a graph-based static timing analyzer over the generated
// cell library: levelized arrival propagation with rise/fall senses and
// slew, endpoint slacks against an ideal clock, per-endpoint critical-path
// backtrace, and the rank-comparison statistics the paper's speed-path
// reordering analysis needs.
//
// Annotations enter exclusively through timinglib.Annotator functions per
// gate instance — the same interface the post-OPC flow uses to feed
// silicon-calibrated effective lengths back into timing.
package sta

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"postopc/internal/netlist"
	"postopc/internal/obs"
	"postopc/internal/stdcell"
	"postopc/internal/timinglib"
)

// Boundary conditions every analysis shares.
const (
	// inputSlewPS is the transition at primary inputs and launching flops.
	inputSlewPS = 30.0
	// primaryLoadFF is the load on primary outputs.
	primaryLoadFF = 5.0
	// setupPS is the flip-flop setup time, subtracted from the required
	// time at D endpoints.
	setupPS = 25.0
)

// Config are the analysis boundary conditions that vary per analysis.
type Config struct {
	// ClockPS is the cycle time: required arrival at every endpoint.
	ClockPS float64
	// KPaths is how many worst paths to report (default 10).
	KPaths int
	// WireLoads optionally supplies per-net wire capacitance (fF), e.g.
	// placement-derived HPWL estimates (see flow.WireLoads). When nil,
	// the flat per-sink CWireFF of the kit is used instead.
	//
	// Contract for partial maps: a net absent from a non-nil map is NOT
	// timed at zero wire capacitance — it falls back to the same flat
	// per-gate-sink CWireFF a nil map would use. Supplying an explicit
	// zero entry is the way to declare a net wire-free.
	WireLoads map[string]float64
}

// ErrNonFiniteConfig is the error an analysis returns when Config.ClockPS
// or a Config.WireLoads entry is NaN or ±Inf. A NaN required time or load
// makes slacks NaN, and a NaN slack compares neither worse nor better than
// any other, so WNS and the path ranking would silently skip it.
var ErrNonFiniteConfig = errors.New("sta: non-finite boundary condition")

// check rejects a Config whose ClockPS or any WireLoads entry is not
// finite, naming the clock or the first such net in name order.
func (cfg Config) check() error {
	if math.IsNaN(cfg.ClockPS) || math.IsInf(cfg.ClockPS, 0) {
		return fmt.Errorf("%w: ClockPS %g", ErrNonFiniteConfig, cfg.ClockPS)
	}
	bad, found := "", false
	for net, w := range cfg.WireLoads {
		if (math.IsNaN(w) || math.IsInf(w, 0)) && (!found || net < bad) {
			bad, found = net, true
		}
	}
	if found {
		return fmt.Errorf("%w: WireLoads[%q] %g", ErrNonFiniteConfig, bad, cfg.WireLoads[bad])
	}
	return nil
}

// DefaultConfig returns sensible N90 boundary conditions (the clock must
// still be chosen per design).
func DefaultConfig(clockPS float64) Config {
	return Config{ClockPS: clockPS, KPaths: 10}
}

// Graph is the timing graph of one netlist, reusable across annotations.
type Graph struct {
	Netlist *netlist.Netlist
	Lib     *stdcell.Library
	TL      *timinglib.Lib

	conns  map[string]*netlist.Conn
	cells  []*stdcell.Info // per gate
	topo   []int           // combinational gates in topological order
	byName map[string]int  // gate instance name -> gate index
	// inputs lists each gate's input (pin, net) pairs sorted by pin name.
	// Propagation walks this fixed order instead of ranging over the Conn
	// map, so arrival ties between input pins break deterministically.
	inputs [][]pinNet

	// Dense net numbering: every net gets an index into slice-shaped
	// per-net state (arrivals, loads), assigned in sorted-name order at
	// Build. The hot loops index slices instead of hashing net names, and
	// an incremental baseline copy is a single memmove.
	netIdx   map[string]int
	netNames []string
	connOf   []*netlist.Conn // conns re-indexed by net index
	outIdx   []int           // per gate: output net index, -1 if unconnected

	// What no annotation or boundary condition can change, resolved once
	// at Build:
	//   - sinkCin: per net, the input capacitance (fF) of each sink,
	//     parallel to its Conn.Sinks (0 at primary outputs). Cin depends
	//     on drawn geometry only (timinglib.Lib.Cin).
	//   - endpoints: the timing endpoints in report collection order,
	//     primary outputs first, then flop D pins in gate order.
	//   - topoPos: each gate's position in topo, -1 for sequential gates.
	//   - fanout: per net, the topological positions of the combinational
	//     gates it feeds, which the cone walk marks when the net's arrival
	//     changes.
	//   - drawn: per gate, its drawn-length Eval (Evaluate(cell, nil)),
	//     which every analysis starts from (see Analyze).
	sinkCin   [][]float64
	endpoints []endpointRef
	topoPos   []int32
	fanout    [][]int32
	drawn     []timinglib.Eval

	// Telemetry handles (see Instrument); nil on an uninstrumented graph.
	// Write-only: telemetry never alters an analysis result.
	cAnalyses  *obs.Counter
	cIncr      *obs.Counter
	cFallbacks *obs.Counter
	cCorners   *obs.Counter
	// cFallbackBy counts fallbacks per reason; the baselineOK slot stays
	// nil.
	cFallbackBy [numFallbackReasons]*obs.Counter
	hAnalyze    *obs.Histogram
	hArrival    *obs.Histogram
	hFullEvals  *obs.Histogram
	hIncrEvals  *obs.Histogram
	hConeGates  *obs.Histogram
}

// Instrument attaches telemetry to the graph: an analyses counter
// ("sta.analyses_total"), whole-Analyze latency ("sta.analyze_ns"), the
// arrival-propagation inner phase ("sta.arrival_propagation_ns"), the
// multi-corner counters ("sta.corners_total",
// "sta.incremental_analyses_total", and "sta.incremental_fallbacks_total"
// for incremental requests answered by a full Analyze, split by reason
// into "sta.incremental_fallbacks_<reason>_total") and the
// full-vs-incremental gate-eval histograms ("sta.full_gate_evals",
// "sta.incremental_gate_evals", "sta.incremental_cone_gates"). Call before
// the graph is shared between workers (Monte Carlo and MultiCorner run
// analyses concurrently); a nil or disabled sink is a no-op.
func (g *Graph) Instrument(sink *obs.Sink) {
	g.cAnalyses = sink.Counter("sta.analyses_total")
	g.cIncr = sink.Counter("sta.incremental_analyses_total")
	g.cFallbacks = sink.Counter("sta.incremental_fallbacks_total")
	for r := baselineOK + 1; r < numFallbackReasons; r++ {
		g.cFallbackBy[r] = sink.Counter("sta.incremental_fallbacks_" + fallbackReasonNames[r] + "_total")
	}
	g.cCorners = sink.Counter("sta.corners_total")
	g.hAnalyze = sink.LatencyHistogram("sta.analyze_ns")
	g.hArrival = sink.LatencyHistogram("sta.arrival_propagation_ns")
	g.hFullEvals = sink.CountHistogram("sta.full_gate_evals")
	g.hIncrEvals = sink.CountHistogram("sta.incremental_gate_evals")
	g.hConeGates = sink.CountHistogram("sta.incremental_cone_gates")
}

// Build constructs and levelizes the timing graph.
func Build(n *netlist.Netlist, lib *stdcell.Library, tl *timinglib.Lib) (*Graph, error) {
	conns, err := n.Connectivity(lib)
	if err != nil {
		return nil, err
	}
	g := &Graph{Netlist: n, Lib: lib, TL: tl, conns: conns}
	g.netNames = make([]string, 0, len(conns))
	for net := range conns {
		g.netNames = append(g.netNames, net)
	}
	sort.Strings(g.netNames)
	g.netIdx = make(map[string]int, len(g.netNames))
	g.connOf = make([]*netlist.Conn, len(g.netNames))
	for i, net := range g.netNames {
		g.netIdx[net] = i
		g.connOf[i] = conns[net]
	}
	g.cells = make([]*stdcell.Info, len(n.Gates))
	g.byName = make(map[string]int, len(n.Gates))
	g.inputs = make([][]pinNet, len(n.Gates))
	g.outIdx = make([]int, len(n.Gates))
	for i, gate := range n.Gates {
		info, err := lib.Get(gate.Cell)
		if err != nil {
			return nil, err
		}
		g.cells[i] = info
		g.byName[gate.Name] = i
		g.outIdx[i] = -1
		for pin, net := range gate.Conn {
			ni, ok := g.netIdx[net]
			if !ok {
				return nil, fmt.Errorf("sta: gate %s pin %s: net %s missing from connectivity", gate.Name, pin, net)
			}
			if pin == info.Output {
				g.outIdx[i] = ni
				continue
			}
			g.inputs[i] = append(g.inputs[i], pinNet{pin: pin, net: net, idx: ni})
		}
		ins := g.inputs[i]
		sort.Slice(ins, func(a, b int) bool { return ins[a].pin < ins[b].pin })
	}
	if err := g.levelize(); err != nil {
		return nil, err
	}
	g.resolve()
	return g, nil
}

// pinNet is one input connection of a gate.
type pinNet struct {
	pin, net string
	idx      int // net index (see Graph.netIdx)
}

// endpointRef is one timing endpoint as Build resolves it.
type endpointRef struct {
	name string
	net  int32 // net index
	flop bool  // a flop D pin (required at ClockPS − setupPS), else a primary output
}

// resolve fills the Build-time tables: sink capacitances, endpoints,
// topological positions, fan-out and drawn evaluations (see Graph).
func (g *Graph) resolve() {
	n := g.Netlist
	g.drawn = make([]timinglib.Eval, len(n.Gates))
	for gi, cell := range g.cells {
		// Only fill cells have no timing, and Connectivity rejects them.
		g.drawn[gi], _ = g.TL.Evaluate(cell, nil)
	}
	g.sinkCin = make([][]float64, len(g.connOf))
	for ni, c := range g.connOf {
		caps := make([]float64, len(c.Sinks))
		for k, s := range c.Sinks {
			if s.Gate >= 0 {
				caps[k] = g.TL.Cin(g.cells[s.Gate])[s.Pin]
			}
		}
		g.sinkCin[ni] = caps
	}
	for _, po := range n.Outputs {
		if ni, ok := g.netIdx[po]; ok {
			g.endpoints = append(g.endpoints, endpointRef{name: po, net: int32(ni)})
		}
	}
	for gi, gate := range n.Gates {
		if g.cells[gi].Kind != stdcell.Seq {
			continue
		}
		if ni, ok := g.netIdx[gate.Conn["D"]]; ok {
			g.endpoints = append(g.endpoints, endpointRef{name: gate.Name + "/D", net: int32(ni), flop: true})
		}
	}
	g.topoPos = make([]int32, len(n.Gates))
	for gi := range g.topoPos {
		g.topoPos[gi] = -1
	}
	g.fanout = make([][]int32, len(g.netNames))
	for p, gi := range g.topo {
		g.topoPos[gi] = int32(p)
		for _, pn := range g.inputs[gi] {
			g.fanout[pn.idx] = append(g.fanout[pn.idx], int32(p))
		}
	}
}

// levelize topologically orders the combinational gates. Sequential cells
// are sources/sinks and never enter the order.
func (g *Graph) levelize() error {
	n := g.Netlist
	indeg := make([]int, len(n.Gates))
	// For each combinational gate, count input nets driven by other
	// combinational gates.
	dependents := map[int][]int{} // driver gate -> dependent gates
	for gi, gate := range n.Gates {
		if g.cells[gi].Kind != stdcell.Comb {
			continue
		}
		for pin, net := range gate.Conn {
			if pin == g.cells[gi].Output {
				continue
			}
			c := g.conns[net]
			if c.Driver.Gate >= 0 && g.cells[c.Driver.Gate].Kind == stdcell.Comb {
				indeg[gi]++
				dependents[c.Driver.Gate] = append(dependents[c.Driver.Gate], gi)
			}
		}
	}
	var queue []int
	for gi := range n.Gates {
		if g.cells[gi].Kind == stdcell.Comb && indeg[gi] == 0 {
			queue = append(queue, gi)
		}
	}
	sort.Ints(queue)
	for len(queue) > 0 {
		gi := queue[0]
		queue = queue[1:]
		g.topo = append(g.topo, gi)
		deps := dependents[gi]
		sort.Ints(deps)
		for _, d := range deps {
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	combCount := 0
	for gi := range n.Gates {
		if g.cells[gi].Kind == stdcell.Comb {
			combCount++
		}
	}
	if len(g.topo) != combCount {
		return fmt.Errorf("sta: combinational loop detected (%d of %d gates ordered)",
			len(g.topo), combCount)
	}
	return nil
}

// Annotations maps gate instance name -> effective-length annotator.
// Missing entries analyze at drawn length; the special key "*" supplies a
// default annotator for gates without a specific entry (e.g. a blanket
// guardband).
type Annotations map[string]timinglib.Annotator

// arrival is the timing state of one net. The zero value is a net no
// analysis has reached: not valid.
type arrival struct {
	atR, atF     float64 // arrival times (ps)
	slewR, slewF float64
	// backtrace: predecessor net index and sense through the driving gate
	// (-1 at startpoints).
	fromNetR, fromNetF   int32
	fromRiseR, fromRiseF bool
	valid                bool
}

// Endpoint is a timing endpoint: a primary output or a flop D pin.
type Endpoint struct {
	// Name identifies the endpoint ("net" for POs, "gate/D" for flops).
	Name string
	// Net is the endpoint's net.
	Net string
	// RequiredPS and ArrivalPS give SlackPS = Required − Arrival.
	RequiredPS, ArrivalPS, SlackPS float64
	// Rise is the worst-arrival sense.
	Rise bool
}

// Result of one analysis.
type Result struct {
	// Endpoints sorted by ascending slack (critical first).
	Endpoints []Endpoint
	// WNS is the worst negative-or-not slack (ps).
	WNS float64
	// TNS is the total negative slack (ps, ≤ 0).
	TNS float64
	// Paths are the K worst per-endpoint critical paths.
	Paths []Path
	// LeakNW is the summed cell leakage.
	LeakNW float64

	// Retained analysis state: AnalyzeIncremental seeds from it to
	// recompute only the cone of gates whose annotation changed. Evals are
	// gate-indexed, arrivals and loads net-indexed (see Graph.netIdx), and
	// all three hold plain values, so seeding is a memmove. Loads depend
	// only on the boundary conditions, so incremental results share their
	// baseline's, read-only.
	g     *Graph
	arr   []arrival
	cfg   Config
	ann   Annotations
	evals []timinglib.Eval
	loads []float64
}

// Path is one speed path from a startpoint to an endpoint.
type Path struct {
	// Endpoint name (see Endpoint.Name).
	Endpoint string
	// SlackPS and ArrivalPS of the endpoint.
	SlackPS, ArrivalPS float64
	// Points runs from the startpoint net to the endpoint net.
	Points []PathPoint
}

// PathPoint is one net traversal on a path.
type PathPoint struct {
	// Net is the net name.
	Net string
	// Gate is the driving gate instance ("" at startpoints).
	Gate string
	// Cell is the driving cell name.
	Cell string
	// Rise is the transition sense on this net.
	Rise bool
	// ArrivalPS is the arrival time at this net.
	ArrivalPS float64
}

// Gates returns the distinct driving gate names on the path, in order.
func (p Path) Gates() []string {
	var out []string
	seen := map[string]bool{}
	for _, pt := range p.Points {
		if pt.Gate != "" && !seen[pt.Gate] {
			seen[pt.Gate] = true
			out = append(out, pt.Gate)
		}
	}
	return out
}

// Analyze runs STA under the given annotations. A non-finite boundary
// condition fails with ErrNonFiniteConfig, and a non-finite annotated
// length with timinglib.ErrNonFiniteLength.
func (g *Graph) Analyze(cfg Config, ann Annotations) (*Result, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	tA := g.hAnalyze.StartTimer()
	defer g.hAnalyze.ObserveSince(tA)
	g.cAnalyses.Inc()
	if cfg.KPaths <= 0 {
		cfg.KPaths = 10
	}
	n := g.Netlist
	// Every gate's electrical view: the drawn table, overwritten at the
	// annotated gates in gate order, so the first failing gate is the one
	// a walk over every gate would meet. A "*" blanket annotates them all.
	res := &Result{g: g, cfg: cfg, ann: ann,
		evals: slices.Clone(g.drawn),
		arr:   make([]arrival, len(g.netNames)),
		loads: g.netLoads(cfg)}
	var gates []int
	if ann["*"] == nil {
		gates = g.appendAnnotated(make([]int, 0, len(ann)), ann)
	} else {
		gates = make([]int, len(n.Gates))
		for gi := range gates {
			gates[gi] = gi
		}
	}
	for _, gi := range gates {
		ev, err := g.evalGate(gi, ann)
		if err != nil {
			return nil, err
		}
		res.evals[gi] = ev
	}
	g.hFullEvals.Observe(float64(len(n.Gates)))
	res.LeakNW = sumLeak(res.evals)

	// Seed arrivals: primary inputs and flop Q outputs.
	for _, in := range n.Inputs {
		if ni, ok := g.netIdx[in]; ok {
			res.arr[ni] = arrival{atR: 0, atF: 0, slewR: inputSlewPS, slewF: inputSlewPS,
				fromNetR: -1, fromNetF: -1, valid: true}
		}
	}
	for gi := range n.Gates {
		if qi := g.outIdx[gi]; qi >= 0 && g.cells[gi].Kind == stdcell.Seq {
			res.arr[qi] = g.launchArrival(res.evals[gi], res.loads[qi])
		}
	}

	// Propagate through combinational gates in topological order.
	tP := g.hArrival.StartTimer()
	for _, gi := range g.topo {
		oi := g.outIdx[gi]
		if oi < 0 {
			continue // dangling output: nothing downstream to time
		}
		res.arr[oi] = g.propagateGate(gi, res.evals[gi], res.loads[oi], res.arr)
	}
	g.hArrival.ObserveSince(tP)

	if err := g.finish(res); err != nil {
		return nil, err
	}
	return res, nil
}

// evalGate evaluates one gate's electrical view under an annotation set
// (the gate's own entry, else the "*" default, else drawn).
func (g *Graph) evalGate(gi int, ann Annotations) (timinglib.Eval, error) {
	a := ann[g.Netlist.Gates[gi].Name]
	if a == nil {
		a = ann["*"]
	}
	ev, err := g.TL.Evaluate(g.cells[gi], a)
	if err != nil {
		return ev, fmt.Errorf("sta: gate %s: %w", g.Netlist.Gates[gi].Name, err)
	}
	return ev, nil
}

// appendAnnotated appends the indices of the gates ann names to dst and
// returns dst sorted, without duplicates. Names that are no gate's ("*"
// included) add nothing.
func (g *Graph) appendAnnotated(dst []int, ann Annotations) []int {
	for name := range ann {
		if gi, ok := g.byName[name]; ok {
			dst = append(dst, gi)
		}
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// sumLeak totals cell leakage in gate-index order (the fixed summation
// order keeps full and incremental results bit-identical).
func sumLeak(evals []timinglib.Eval) float64 {
	var leak float64
	for i := range evals {
		leak += evals[i].LeakNW
	}
	return leak
}

// netLoads computes every net's capacitive load, net-index-shaped: sink
// input-pin caps plus wire capacitance — the per-net WireLoads entry when
// present, the kit's flat per-gate-sink CWireFF otherwise. A net absent
// from a non-nil WireLoads map takes the same flat fallback a nil map would
// (see Config.WireLoads); it is never silently timed at zero wire
// capacitance.
func (g *Graph) netLoads(cfg Config) []float64 {
	loads := make([]float64, len(g.netNames))
	for ni, c := range g.connOf {
		var l float64
		gateSinks := 0
		for k, s := range c.Sinks {
			if s.Gate < 0 {
				l += primaryLoadFF
				continue
			}
			l += g.sinkCin[ni][k]
			if cfg.WireLoads == nil {
				l += g.TL.P.CWireFF
			} else {
				gateSinks++
			}
		}
		if cfg.WireLoads != nil {
			if w, ok := cfg.WireLoads[g.netNames[ni]]; ok {
				l += w
			} else {
				l += float64(gateSinks) * g.TL.P.CWireFF
			}
		}
		loads[ni] = l
	}
	return loads
}

// launchArrival computes the clk->Q seed arrival of a flop with
// evaluation ev driving a Q net of the given load.
func (g *Graph) launchArrival(ev timinglib.Eval, load float64) arrival {
	dR, sR := g.TL.ArcDelay(ev, true, load, inputSlewPS)
	dF, sF := g.TL.ArcDelay(ev, false, load, inputSlewPS)
	return arrival{atR: dR, atF: dF, slewR: sR, slewF: sF, fromNetR: -1, fromNetF: -1, valid: true}
}

// propagateGate computes one combinational gate's output arrival from the
// arrivals of its input nets. Input pins are visited in the fixed sorted
// order prepared by Build, so ties break deterministically.
func (g *Graph) propagateGate(gi int, ev timinglib.Eval, load float64, arr []arrival) arrival {
	cell := g.cells[gi]
	out := arrival{atR: math.Inf(-1), atF: math.Inf(-1), fromNetR: -1, fromNetF: -1}
	for _, pn := range g.inputs[gi] {
		in := &arr[pn.idx]
		if !in.valid {
			continue // input from an unconstrained source
		}
		from := int32(pn.idx)
		consider := func(inRise bool, inAT, inSlew float64) {
			for _, outRise := range outSenses(cell.Unate, inRise) {
				d, os := g.TL.ArcDelay(ev, outRise, load, inSlew)
				at := inAT + d
				if outRise && at > out.atR {
					out.atR, out.slewR = at, os
					out.fromNetR, out.fromRiseR = from, inRise
				} else if !outRise && at > out.atF {
					out.atF, out.slewF = at, os
					out.fromNetF, out.fromRiseF = from, inRise
				}
			}
		}
		consider(true, in.atR, in.slewR)
		consider(false, in.atF, in.slewF)
	}
	if !math.IsInf(out.atR, -1) || !math.IsInf(out.atF, -1) {
		out.valid = true
	}
	return out
}

// finish derives the endpoint view of a result whose arrivals are
// complete: endpoint collection, the slack sort, WNS/TNS and the K worst
// path backtraces. Shared by Analyze and AnalyzeIncremental so the
// merged outputs are computed identically.
func (g *Graph) finish(res *Result) error {
	cfg := res.cfg
	eps := make([]Endpoint, 0, len(g.endpoints))
	for _, ref := range g.endpoints {
		if ep, ok := g.endpoint(ref, res.arr, cfg.ClockPS); ok {
			eps = append(eps, ep)
		}
	}
	res.Endpoints = eps
	// Ascending slack, then name (names are unique), in cmp.Compare's
	// order, which puts a NaN slack first. Finite lengths with
	// non-negative loads and contact resistances give none: analyses
	// reject non-finite inputs, ArcDelay times a cell without drive at
	// 1e9 ps instead of dividing by zero, so every delay lies in
	// [0, +Inf], and propagateGate's > never takes a NaN candidate
	// (TestExtremeLengthsNoNaNSlack). A negative load and contact
	// resistance can overflow into a NaN flop launch
	// (TestNaNSlackSortsFirst); worstSlack scans in the same order.
	slices.SortFunc(eps, func(a, b Endpoint) int {
		if c := cmp.Compare(a.SlackPS, b.SlackPS); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	if len(eps) == 0 {
		return g.errNoEndpoints()
	}
	res.WNS = eps[0].SlackPS
	for _, ep := range eps {
		if ep.SlackPS < 0 {
			res.TNS += ep.SlackPS
		}
	}
	// K worst paths (one per endpoint).
	res.Paths = make([]Path, min(cfg.KPaths, len(eps)))
	for i := range res.Paths {
		res.Paths[i] = g.backtrace(res, eps[i])
	}
	return nil
}

// endpoint times ref against the arrivals under a clockPS cycle: its
// required time, worst-arrival sense and slack. ok is false when no
// arrival reaches it (an unconstrained endpoint).
func (g *Graph) endpoint(ref endpointRef, arr []arrival, clockPS float64) (ep Endpoint, ok bool) {
	a := &arr[ref.net]
	if !a.valid {
		return ep, false
	}
	ep = Endpoint{Name: ref.name, Net: g.netNames[ref.net], RequiredPS: clockPS}
	if ref.flop {
		ep.RequiredPS = clockPS - setupPS
	}
	if a.atR >= a.atF {
		ep.ArrivalPS, ep.Rise = a.atR, true
	} else {
		ep.ArrivalPS, ep.Rise = a.atF, false
	}
	ep.SlackPS = ep.RequiredPS - ep.ArrivalPS
	return ep, true
}

// worstSlack is a Monte Carlo sample's ending: the first endpoint slack in
// finish's order, found in one scan without finish's endpoint list, sort
// or backtrace. A tie goes to the smaller name, as in that order, so the
// result carries the bits of finish's WNS, the sign of a zero included.
func (g *Graph) worstSlack(arr []arrival, clockPS float64) (float64, error) {
	var wns float64
	worst := -1
	for k, ref := range g.endpoints {
		ep, ok := g.endpoint(ref, arr, clockPS)
		if !ok {
			continue
		}
		if c := cmp.Compare(ep.SlackPS, wns); worst < 0 || c < 0 || c == 0 && ref.name < g.endpoints[worst].name {
			worst, wns = k, ep.SlackPS
		}
	}
	if worst < 0 {
		return 0, g.errNoEndpoints()
	}
	return wns, nil
}

// errNoEndpoints is the error of an analysis no endpoint constrains.
func (g *Graph) errNoEndpoints() error {
	return fmt.Errorf("sta: design %s has no constrained endpoints", g.Netlist.Name)
}

// outSenses lists the output transitions an input transition can launch.
func outSenses(u stdcell.Unate, inRise bool) []bool {
	switch u {
	case stdcell.Inverting:
		return []bool{!inRise}
	case stdcell.NonInverting:
		return []bool{inRise}
	default:
		return []bool{true, false}
	}
}

// backtrace reconstructs the critical path into an endpoint.
func (g *Graph) backtrace(res *Result, ep Endpoint) Path {
	p := Path{Endpoint: ep.Name, SlackPS: ep.SlackPS, ArrivalPS: ep.ArrivalPS}
	ni, ok := g.netIdx[ep.Net]
	if !ok {
		return p
	}
	rise := ep.Rise
	for i := 0; i < len(g.Netlist.Gates)+2; i++ {
		a := &res.arr[ni]
		if !a.valid {
			break
		}
		pt := PathPoint{Net: g.netNames[ni], Rise: rise}
		if rise {
			pt.ArrivalPS = a.atR
		} else {
			pt.ArrivalPS = a.atF
		}
		c := g.connOf[ni]
		if c != nil && c.Driver.Gate >= 0 {
			pt.Gate = g.Netlist.Gates[c.Driver.Gate].Name
			pt.Cell = g.Netlist.Gates[c.Driver.Gate].Cell
		}
		p.Points = append(p.Points, pt)
		var fromNet int32
		var fromRise bool
		if rise {
			fromNet, fromRise = a.fromNetR, a.fromRiseR
		} else {
			fromNet, fromRise = a.fromNetF, a.fromRiseF
		}
		if fromNet < 0 {
			break // startpoint (PI or flop Q)
		}
		ni, rise = int(fromNet), fromRise
	}
	slices.Reverse(p.Points) // startpoint first
	return p
}

// ArrivalOf exposes a net's worst arrival (for tests and reports).
func (r *Result) ArrivalOf(net string) (ps float64, ok bool) {
	ni, found := r.g.netIdx[net]
	if !found {
		return 0, false
	}
	a := r.arr[ni]
	if !a.valid {
		return 0, false
	}
	return math.Max(a.atR, a.atF), true
}

// CriticalGates returns the union of gate names on the k worst paths — the
// paper's "tagged critical gates". k is clamped to the reported paths; k ≤ 0
// tags no gates.
func (r *Result) CriticalGates(k int) []string {
	k = min(max(k, 0), len(r.Paths))
	seen := map[string]bool{}
	var out []string
	for _, p := range r.Paths[:k] {
		for _, gname := range p.Gates() {
			if !seen[gname] {
				seen[gname] = true
				out = append(out, gname)
			}
		}
	}
	sort.Strings(out)
	return out
}
