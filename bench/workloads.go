package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"postopc/internal/cache"
	"postopc/internal/flow"
	"postopc/internal/geom"
	"postopc/internal/layout"
	"postopc/internal/netlist"
	"postopc/internal/obs"
	"postopc/internal/pdk"
	"postopc/internal/place"
	"postopc/internal/sta"
)

// workload is one set of inputs the benchmark runs, at fixed sizes. setup
// generates one design's inputs from a seed and warms the process-wide
// state the flow keeps (FFT plans, the shared filter bank, scratch pools),
// reporting how long building the design's STA graph took.
type workload interface {
	setup(seed int64) (d design, graphBuild time.Duration, err error)
	describe() string
}

// design is one set-up's inputs. op runs one operation on them from a
// fresh flow.Flow, so its pattern cache starts cold, as it does in every
// new postopc-sta process.
type design interface {
	op(o *opCtx) (opResult, error)
}

// newWorkload returns the named workload at the benchmark's sizes.
func newWorkload(name string) (workload, error) {
	switch name {
	case "signoff_abbe":
		return &signoffAbbe{chains: 32, depth: 10, tagTopK: 1, samples: 200,
			grid: flow.MultiCornerSTAOptions{DefocusSteps: 2, DoseSteps: 1, GuardbandKSigma: 3}}, nil
	case "fullchip_strip":
		return &fullchipStrip{chains: 64, depth: 3, rowNM: 2380, tileNM: 5200, batch: 16}, nil
	case "timing_mc":
		return &timingMC{chains: 128, depth: 24, samples: 500,
			grid: flow.MultiCornerSTAOptions{DefocusSteps: 4, DoseSteps: 2, GuardbandKSigma: 3}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want signoff_abbe, fullchip_strip or timing_mc)", name)
}

// opCtx is what an op needs besides the workload's inputs: the telemetry
// sink, root span and timing decorators of a traced op (all zero when
// untraced), and whether the op runs the reference schedule, whose results
// must equal the timed schedule's bit for bit.
type opCtx struct {
	sink   *obs.Sink
	clocks *clocks
	root   obs.Span
	ref    bool
}

// step runs fn inside a benchmark span named "op."+name, a child of the
// op's root span; it is a no-op wrapper when the op is untraced.
func (o *opCtx) step(name string, fn func() error) error {
	sp := o.sink.StartChild("op."+name, o.root.ID())
	err := fn()
	sp.End()
	return err
}

// newFlow builds the fresh flow.Flow an op starts from, with a cold
// pattern cache when cached is set. A traced op also attaches its sink and
// installs the timing decorators.
func (o *opCtx) newFlow(kit *pdk.PDK, fast, cached bool) (*flow.Flow, error) {
	var f *flow.Flow
	err := o.step("flow.New", func() error {
		var err error
		if f, err = flow.New(kit, flow.Config{Fast: fast}); err != nil {
			return err
		}
		if cached {
			f.EnableCache(0)
		}
		if o.sink == nil {
			return nil
		}
		f.EnableObs(o.sink)
		return o.clocks.install(f)
	})
	return f, err
}

// opResult is what one op reports besides its wall and CPU time.
type opResult struct {
	// digest is the SHA-256 of the op's results (see digest.go).
	digest string
	// windows and tiles count the extraction windows and ORC tiles the op
	// computed.
	windows, tiles int
	// unprinted counts the extracted sites that failed to print.
	unprinted int
	// cache is the op's pattern-cache traffic.
	cache cache.Stats
}

// probeClockPS is a clock period long enough that every endpoint meets it;
// the drawn critical delay is read off the slack at this clock.
const probeClockPS = 100000

// clockFor builds the STA graph and sets the clock 3% above the drawn
// critical delay, the tight "slack wall" regime of the paper's evaluation,
// reporting the 20 worst paths.
func clockFor(f *flow.Flow, nl *netlist.Netlist) (*sta.Graph, sta.Config, time.Duration, error) {
	t0 := time.Now()
	g, err := f.BuildGraph(nl)
	build := time.Since(t0)
	if err != nil {
		return nil, sta.Config{}, 0, err
	}
	probe, err := g.Analyze(sta.DefaultConfig(probeClockPS), nil)
	if err != nil {
		return nil, sta.Config{}, 0, err
	}
	cfg := sta.DefaultConfig(1.03 * (probeClockPS - probe.WNS))
	cfg.KPaths = 20
	return g, cfg, build, nil
}

// warmGate picks the gate a set-up warms up on: the one among names with
// the widest cell, the first in name order on a tie. Warming up on the
// same cell type in every design keeps set-up work, and so setup_s,
// comparable from seed to seed.
func warmGate(f *flow.Flow, nl *netlist.Netlist, names []string) (string, error) {
	names = append([]string(nil), names...)
	sort.Strings(names)
	best, bestW := "", geom.Coord(-1)
	for _, n := range names {
		gi := nl.FindGate(n)
		if gi < 0 {
			return "", fmt.Errorf("gate %s is not in the netlist", n)
		}
		info, err := f.Lib.Get(nl.Gates[gi].Cell)
		if err != nil {
			return "", err
		}
		if w := info.Layout.Box.W(); w > bestW {
			best, bestW = n, w
		}
	}
	if best == "" {
		return "", errors.New("no gate to warm up on")
	}
	return best, nil
}

// gridCorners is the number of corners MultiCornerSTA analyzes for opt:
// the defocus × dose grid (nominal included) plus the guardband corner.
func gridCorners(opt flow.MultiCornerSTAOptions) int {
	n := (opt.DefocusSteps + 1) * (2*opt.DoseSteps + 1)
	if opt.GuardbandKSigma > 0 {
		n++
	}
	return n
}

// signoffAbbe is the paper's sign-off flow with physical imaging: place,
// drawn STA, tag the worst paths' gates, model OPC and Abbe imaging at the
// four variation corners, annotated STA, then the multi-corner grid and
// Monte Carlo over the fitted variation model.
type signoffAbbe struct {
	chains, depth, tagTopK, samples int
	grid                            flow.MultiCornerSTAOptions
}

// abbeDesign is one signoffAbbe set-up: the inputs of one design.
type abbeDesign struct {
	*signoffAbbe
	kit  *pdk.PDK
	nl   *netlist.Netlist
	cfg  sta.Config
	seed int64
}

func (w *signoffAbbe) describe() string {
	return fmt.Sprintf("Datapath(%d,%d,seed), model OPC, Abbe verify, TagTopK %d, %d variation corners, %d-corner grid, %d MC samples",
		w.chains, w.depth, w.tagTopK, 4, gridCorners(w.grid), w.samples)
}

func (w *signoffAbbe) setup(seed int64) (design, time.Duration, error) {
	kit := pdk.N90()
	nl := netlist.Datapath(w.chains, w.depth, seed)
	f, err := flow.New(kit, flow.Config{})
	if err != nil {
		return nil, 0, err
	}
	g, cfg, build, err := clockFor(f, nl)
	if err != nil {
		return nil, 0, err
	}
	drawn, err := g.Analyze(cfg, nil)
	if err != nil {
		return nil, 0, err
	}
	pl, err := f.Place(nl, place.Options{})
	if err != nil {
		return nil, 0, err
	}
	// Warm-up: one critical gate's window through model OPC and Abbe
	// imaging at the variation corners, on this throwaway flow.
	warm, err := warmGate(f, nl, drawn.CriticalGates(1))
	if err != nil {
		return nil, 0, err
	}
	if _, err := f.ExtractGates(pl.Chip, []string{warm}, flow.ExtractOptions{
		Corners: flow.VariationCorners(kit.Window), Mode: flow.OPCModel,
	}); err != nil {
		return nil, 0, err
	}
	return &abbeDesign{signoffAbbe: w, kit: kit, nl: nl, cfg: cfg, seed: seed}, build, nil
}

func (d *abbeDesign) op(o *opCtx) (opResult, error) {
	var r opResult
	f, err := o.newFlow(d.kit, false, true)
	if err != nil {
		return r, err
	}
	corners := flow.VariationCorners(d.kit.Window)
	batch := 0 // per-window fork-join
	if o.ref {
		batch = 4
	}
	var res *flow.RunResult
	if err := o.step("flow.Run", func() (err error) {
		res, err = f.Run(d.nl, flow.RunOptions{
			STA: d.cfg, Mode: flow.OPCModel, Corners: corners, TagTopK: d.tagTopK, Batch: batch,
		})
		return err
	}); err != nil {
		return r, err
	}
	var vm *flow.VariationModel
	if err := o.step("flow.BuildVariationModel", func() (err error) {
		vm, err = flow.BuildVariationModel(res.Extractions, d.kit.Window, d.kit.Device.SigmaLRandomNM)
		return err
	}); err != nil {
		return r, err
	}
	vm.Obs = o.sink
	var mcr *sta.MultiCornerResult
	if err := o.step("flow.MultiCornerSTA", func() (err error) {
		mcr, err = f.MultiCornerSTA(res.Graph, d.cfg, vm, d.grid)
		return err
	}); err != nil {
		return r, err
	}
	var mc flow.MCResult
	if err := o.step("flow.MonteCarlo", func() (err error) {
		mc, err = vm.MonteCarlo(res.Graph, d.cfg, d.samples, d.seed)
		return err
	}); err != nil {
		return r, err
	}
	err = o.step("check", func() error {
		h := newDigest()
		h.extractions(res.Extractions)
		h.analysis(res.Drawn)
		h.analysis(res.Annotated)
		h.comparison(res.Shift, res.Ranks)
		h.multiCorner(mcr)
		h.monteCarlo(mc)
		r.digest = h.sum()
		return errors.Join(
			checkExtracted(res.Tagged, res.Extractions, len(corners)),
			checkMultiCorner(mcr, gridCorners(d.grid)),
			checkMonteCarlo(mc, d.samples),
			checkFinite(map[string]float64{"drawn": res.Drawn.WNS, "annotated": res.Annotated.WNS, "multi-corner": mcr.WNS}),
		)
	})
	r.windows = len(res.Extractions)
	r.unprinted = unprintedSites(res.Extractions)
	r.cache = f.CacheStats()
	return r, err
}

// fullchipStrip is full-chip extraction and ORC of a repeated-context
// datapath placed as a bit-slice strip (one cell per row), where most
// windows and tiles recur and the pattern cache serves them; the extracted
// lengths are back-annotated into STA as in the paper's flow.
type fullchipStrip struct {
	chains, depth, batch int
	rowNM, tileNM        geom.Coord
}

// stripDesign is one fullchipStrip set-up: the inputs of one design.
type stripDesign struct {
	*fullchipStrip
	kit   *pdk.PDK
	nl    *netlist.Netlist
	chip  *layout.Chip
	gates []string
	cfg   sta.Config
}

func (w *fullchipStrip) describe() string {
	return fmt.Sprintf("DatapathRegular(%d,%d,seed) strip-placed at %dnm rows, all gates extracted, ORC at %dnm tiles, fast model, model OPC, batch %d, cache on",
		w.chains, w.depth, w.rowNM, w.tileNM, w.batch)
}

func (w *fullchipStrip) setup(seed int64) (design, time.Duration, error) {
	kit := pdk.N90()
	nl := netlist.DatapathRegular(w.chains, w.depth, seed)
	f, err := flow.New(kit, flow.Config{Fast: true})
	if err != nil {
		return nil, 0, err
	}
	pl, err := f.Place(nl, place.Options{RowWidthNM: w.rowNM})
	if err != nil {
		return nil, 0, err
	}
	_, cfg, build, err := clockFor(f, nl)
	if err != nil {
		return nil, 0, err
	}
	gates := make([]string, len(nl.Gates))
	for i, g := range nl.Gates {
		gates[i] = g.Name
	}
	// Warm-up: one window through the batched pipeline on this throwaway
	// flow.
	warm, err := warmGate(f, nl, gates)
	if err != nil {
		return nil, 0, err
	}
	if _, err := f.ExtractGates(pl.Chip, []string{warm}, flow.ExtractOptions{Mode: flow.OPCModel, Batch: w.batch}); err != nil {
		return nil, 0, err
	}
	return &stripDesign{fullchipStrip: w, kit: kit, nl: nl, chip: pl.Chip, gates: gates, cfg: cfg}, build, nil
}

func (d *stripDesign) op(o *opCtx) (opResult, error) {
	var r opResult
	f, err := o.newFlow(d.kit, true, true)
	if err != nil {
		return r, err
	}
	batch := d.batch
	if o.ref {
		batch = 0 // the per-window fork-join path
	}
	var exts map[string]*flow.GateExtraction
	if err := o.step("flow.ExtractGates", func() (err error) {
		exts, err = f.ExtractGates(d.chip, nil, flow.ExtractOptions{Mode: flow.OPCModel, Batch: batch})
		return err
	}); err != nil {
		return r, err
	}
	var g *sta.Graph
	if err := o.step("flow.BuildGraph", func() (err error) {
		g, err = f.BuildGraph(d.nl)
		return err
	}); err != nil {
		return r, err
	}
	var drawn, annotated *sta.Result
	if err := o.step("sta.Analyze", func() (err error) {
		if drawn, err = g.Analyze(d.cfg, nil); err != nil {
			return err
		}
		annotated, err = g.Analyze(d.cfg, flow.Annotations(exts, 0))
		return err
	}); err != nil {
		return r, err
	}
	var rep *flow.ORCReport
	if err := o.step("flow.VerifyChip", func() (err error) {
		rep, err = f.VerifyChip(d.chip, flow.ORCOptions{Mode: flow.OPCModel, TileNM: d.tileNM, Batch: batch})
		return err
	}); err != nil {
		return r, err
	}
	err = o.step("check", func() error {
		h := newDigest()
		h.extractions(exts)
		h.analysis(drawn)
		h.analysis(annotated)
		h.comparison(sta.CompareSlacks(drawn, annotated), sta.CompareOrders(drawn, annotated, 5, 10))
		h.orc(rep)
		r.digest = h.sum()
		var tiles error
		if rep.Tiles == 0 {
			tiles = errors.New("ORC scanned no tiles")
		}
		return errors.Join(
			checkExtracted(d.gates, exts, 1),
			checkFinite(map[string]float64{"drawn": drawn.WNS, "annotated": annotated.WNS}),
			tiles,
		)
	})
	r.windows, r.tiles = len(exts), rep.Tiles
	r.unprinted = unprintedSites(exts)
	r.cache = f.CacheStats()
	return r, err
}

// timingMC is statistical sign-off of an already-extracted large block:
// the variation model fitted from the top path's extractions drives the
// multi-corner grid, incrementally and in full, and Monte Carlo. No imaging
// runs inside an op.
type timingMC struct {
	chains, depth, samples int
	grid                   flow.MultiCornerSTAOptions
}

// mcDesign is one timingMC set-up: the inputs of one design.
type mcDesign struct {
	*timingMC
	kit  *pdk.PDK
	nl   *netlist.Netlist
	cfg  sta.Config
	exts map[string]*flow.GateExtraction
	seed int64
}

func (w *timingMC) describe() string {
	return fmt.Sprintf("Datapath(%d,%d,seed), top path pre-extracted (fast model, no OPC) at 4 variation corners, %d-corner grid incremental and full, %d MC samples",
		w.chains, w.depth, gridCorners(w.grid), w.samples)
}

func (w *timingMC) setup(seed int64) (design, time.Duration, error) {
	kit := pdk.N90()
	nl := netlist.Datapath(w.chains, w.depth, seed)
	f, err := flow.New(kit, flow.Config{Fast: true})
	if err != nil {
		return nil, 0, err
	}
	g, cfg, build, err := clockFor(f, nl)
	if err != nil {
		return nil, 0, err
	}
	drawn, err := g.Analyze(cfg, nil)
	if err != nil {
		return nil, 0, err
	}
	pl, err := f.Place(nl, place.Options{})
	if err != nil {
		return nil, 0, err
	}
	// The extraction is an input of this workload, not its work; it runs
	// without OPC to keep repeated set-ups short.
	exts, err := f.ExtractGates(pl.Chip, drawn.CriticalGates(1), flow.ExtractOptions{
		Corners: flow.VariationCorners(kit.Window), Mode: flow.OPCNone,
	})
	if err != nil {
		return nil, 0, err
	}
	return &mcDesign{timingMC: w, kit: kit, nl: nl, cfg: cfg, exts: exts, seed: seed}, build, nil
}

func (d *mcDesign) op(o *opCtx) (opResult, error) {
	var r opResult
	f, err := o.newFlow(d.kit, true, false)
	if err != nil {
		return r, err
	}
	workers := 0
	if o.ref {
		workers = 1
	}
	var g *sta.Graph
	if err := o.step("flow.BuildGraph", func() (err error) {
		g, err = f.BuildGraph(d.nl)
		return err
	}); err != nil {
		return r, err
	}
	var vm *flow.VariationModel
	if err := o.step("flow.BuildVariationModel", func() (err error) {
		vm, err = flow.BuildVariationModel(d.exts, d.kit.Window, d.kit.Device.SigmaLRandomNM)
		return err
	}); err != nil {
		return r, err
	}
	vm.Obs = o.sink
	grid := d.grid
	grid.Workers = workers
	var incr, full *sta.MultiCornerResult
	if err := o.step("flow.MultiCornerSTA", func() (err error) {
		if incr, err = f.MultiCornerSTA(g, d.cfg, vm, grid); err != nil {
			return err
		}
		grid.Full = true
		full, err = f.MultiCornerSTA(g, d.cfg, vm, grid)
		return err
	}); err != nil {
		return r, err
	}
	var mc flow.MCResult
	if err := o.step("flow.MonteCarlo", func() (err error) {
		mc, err = vm.MonteCarloWorkers(g, d.cfg, d.samples, d.seed, workers)
		return err
	}); err != nil {
		return r, err
	}
	err = o.step("check", func() error {
		di, df := newDigest(), newDigest()
		di.multiCorner(incr)
		df.multiCorner(full)
		var same error
		if di.sum() != df.sum() {
			same = errors.New("incremental and full multi-corner analyses differ")
		}
		h := newDigest()
		h.extractions(d.exts)
		h.multiCorner(incr)
		h.monteCarlo(mc)
		r.digest = h.sum()
		return errors.Join(
			same,
			checkMultiCorner(incr, gridCorners(d.grid)),
			checkMonteCarlo(mc, d.samples),
			checkFinite(map[string]float64{"multi-corner": incr.WNS}),
		)
	})
	r.unprinted = unprintedSites(d.exts)
	return r, err
}
