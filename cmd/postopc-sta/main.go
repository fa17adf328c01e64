// postopc-sta runs the paper's full pipeline on a benchmark or user
// netlist: place → tag critical gates → OPC → litho simulation → post-OPC
// CD extraction → equivalent lengths → back-annotated STA, reporting the
// drawn-vs-silicon slack shifts and the speed-path criticality reordering.
//
// Usage:
//
//	postopc-sta -design mult -size 4 -clock 2200
//	postopc-sta -netlist design.v -clock 1800 -mode model -topk 10
//	postopc-sta -design rca -size 8 -clock 2600 -mc 500
//	postopc-sta -design rca -size 8 -corners -defocus-steps 3 -dose-steps 2
//	postopc-sta -design rca -size 8 -trace run.json -metrics metrics.prom
//	postopc-sta -design rca -size 8 -cache -ledger run.ledger
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"postopc/internal/cli"
	"postopc/internal/flow"
	"postopc/internal/netlist"
	"postopc/internal/pdk"
	"postopc/internal/report"
	"postopc/internal/sta"
)

func main() {
	design := flag.String("design", "rca", "benchmark: invchain | rca | mult | rand")
	size := flag.Int("size", 4, "benchmark size")
	seed := flag.Int64("seed", 1, "seed for -design rand")
	file := flag.String("netlist", "", "structural Verilog netlist (overrides -design)")
	clock := flag.Float64("clock", 0, "clock period (ps); 0 = auto (2% above drawn critical path)")
	mode := flag.String("mode", "model", "OPC: none | rule | model")
	fast := flag.Bool("fast", false, "verify with the fast Gaussian model instead of Abbe")
	topk := flag.Int("topk", 0, "extract only gates on the K worst drawn paths (0 = all)")
	mc := flag.Int("mc", 0, "Monte Carlo samples over the process window (0 = skip)")
	corners := flag.Bool("corners", false, "multi-corner sign-off: merged worst slack over the (defocus x dose) grid plus a 3-sigma guardband corner")
	defocusSteps := flag.Int("defocus-steps", 2, "defocus grid points beyond nominal for -corners")
	doseSteps := flag.Int("dose-steps", 1, "dose grid points on each side of nominal for -corners")
	kpaths := flag.Int("paths", 5, "worst paths to report")
	orc := flag.Bool("orc", false, "run full-chip ORC (hotspot scan) after the flow")
	contacts := flag.Bool("contacts", false, "multi-layer extraction: annotate contact resistance too")
	wires := flag.Bool("wires", false, "use placement-derived (HPWL) wire loads instead of flat per-fanout caps")
	libOut := flag.String("lib", "", "export a Liberty-flavored .lib of the drawn library to this file")
	jobs := flag.Int("j", 0, "worker goroutines for extraction, ORC and Monte Carlo (0 = GOMAXPROCS, 1 = serial); results are identical for any value")
	batch := flag.Int("batch", 0, "image extraction and ORC windows in batches of N (0/1 = one window per batch); results are identical for any value")
	useCache := flag.Bool("cache", false, "recall repeated layout contexts from the content-addressed pattern cache; results are byte-identical with and without it")
	cacheSize := flag.Int("cache-size", 0, "pattern cache capacity in artifacts (0 = default); implies -cache")
	tel := cli.Telemetry("postopc-sta")
	flag.Parse()
	tel.Start()

	n, err := loadNetlist(*file, *design, *size, *seed)
	if err != nil {
		fatal(err)
	}
	p := pdk.N90()
	f, err := flow.New(p, flow.Config{Fast: *fast})
	if err != nil {
		fatal(err)
	}
	opcMode, err := parseMode(*mode)
	if err != nil {
		fatal(err)
	}
	if *useCache || *cacheSize > 0 {
		f.EnableCache(*cacheSize)
	}
	f.EnableObs(tel.Sink)

	if *libOut != "" {
		lf, err := os.Create(*libOut)
		if err != nil {
			fatal(err)
		}
		err = f.TL.WriteLiberty(lf, f.Lib, nil,
			[]float64{5, 15, 40, 100, 250}, []float64{1, 3, 8, 20, 50})
		lf.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *libOut)
	}

	// Auto clock: 2% of margin over the drawn critical path, so slack
	// percentages are meaningful.
	cfg := sta.DefaultConfig(10000)
	cfg.KPaths = *kpaths
	g, err := f.BuildGraph(n)
	if err != nil {
		fatal(err)
	}
	pre, err := g.Analyze(cfg, nil)
	if err != nil {
		fatal(err)
	}
	if *clock <= 0 {
		*clock = 1.02 * (10000 - pre.WNS)
		fmt.Printf("auto clock: %.0fps (drawn critical path %.0fps)\n", *clock, 10000-pre.WNS)
	}
	cfg.ClockPS = *clock

	t0 := time.Now()
	res, err := f.Run(n, flow.RunOptions{
		STA:     cfg,
		Mode:    opcMode,
		Corners: flow.VariationCorners(p.Window),
		TagTopK: *topk,
		Workers: *jobs,
		Batch:   *batch,
	})
	if err != nil {
		fatal(err)
	}
	if *wires {
		loads, err := f.WireLoads(res.Place.Chip, n)
		if err != nil {
			fatal(err)
		}
		cfg.WireLoads = loads
		res.Drawn, err = res.Graph.Analyze(cfg, nil)
		if err != nil {
			fatal(err)
		}
		res.Annotated, err = res.Graph.Analyze(cfg, flow.Annotations(res.Extractions, 0))
		if err != nil {
			fatal(err)
		}
		res.Shift = sta.CompareSlacks(res.Drawn, res.Annotated)
		res.Ranks = sta.CompareOrders(res.Drawn, res.Annotated, 5, 10)
		fmt.Println("using placement-derived wire loads")
	}
	fmt.Printf("flow on %s (%d gates, %d extracted) took %v\n",
		n.Name, len(n.Gates), len(res.Extractions), time.Since(t0))

	// Extraction summary.
	ext := report.NewTable("post-OPC CD extraction (nominal)", "gate", "cell",
		"drawn(nm)", "meanCD(nm)", "delayEL(nm)", "leakEL(nm)", "nonunif(nm)", "EPE p95")
	shown := 0
	for _, name := range res.Tagged {
		e := res.Extractions[name]
		if e == nil || len(e.Sites) == 0 {
			continue
		}
		s := e.Sites[0]
		c := s.PerCorner[0]
		ext.AddF(2, name, e.Cell, s.DrawnL, c.MeanCD, c.DelayEL, c.LeakEL, c.Nonuniformity, e.EPE.P95Abs)
		shown++
		if shown >= 12 {
			ext.Add("...", fmt.Sprintf("(%d more)", len(res.Tagged)-shown))
			break
		}
	}
	ext.Fprint(os.Stdout)

	// Timing comparison.
	cmp := report.NewTable("drawn vs post-OPC annotated timing", "analysis", "WNS(ps)", "TNS(ps)", "leak(nW)")
	cmp.AddF(1, "drawn CD", res.Drawn.WNS, res.Drawn.TNS, res.Drawn.LeakNW)
	cmp.AddF(1, "post-OPC", res.Annotated.WNS, res.Annotated.TNS, res.Annotated.LeakNW)
	cmp.Fprint(os.Stdout)
	fmt.Printf("worst-slack shift: %+.1f%%  mean|Δslack| %.1fps  max|Δslack| %.1fps\n",
		res.Shift.WNSShiftPct, res.Shift.MeanAbsShiftPS, res.Shift.MaxAbsShiftPS)
	fmt.Printf("criticality reordering: Spearman %.3f, Kendall %.3f, top-5 overlap %.0f%%, top-10 overlap %.0f%%\n",
		res.Ranks.Spearman, res.Ranks.KendallTau,
		100*res.Ranks.TopNOverlap[5], 100*res.Ranks.TopNOverlap[10])

	// Worst paths side by side.
	paths := report.NewTable("worst speed paths", "rank", "drawn endpoint", "slack(ps)", "post-OPC endpoint", "slack(ps)")
	for i := 0; i < *kpaths && i < len(res.Drawn.Paths) && i < len(res.Annotated.Paths); i++ {
		paths.AddF(1, i+1,
			res.Drawn.Paths[i].Endpoint, res.Drawn.Paths[i].SlackPS,
			res.Annotated.Paths[i].Endpoint, res.Annotated.Paths[i].SlackPS)
	}
	paths.Fprint(os.Stdout)

	if *contacts {
		cext := map[string]*flow.ContactExtraction{}
		for _, name := range res.Tagged {
			inst := res.Place.Chip.FindInstance(name)
			ce, err := f.ExtractContacts(res.Place.Chip, inst, flow.VariationCorners(p.Window)[1])
			if err != nil {
				fatal(err)
			}
			cext[name] = ce
		}
		ann := f.WithContacts(flow.Annotations(res.Extractions, 0), cext)
		withRc, err := res.Graph.Analyze(cfg, ann)
		if err != nil {
			fatal(err)
		}
		var meanRatio float64
		for _, ce := range cext {
			meanRatio += ce.MeanAreaRatio
		}
		meanRatio /= float64(len(cext))
		fmt.Printf("multi-layer: contact area ratio %.3f at defocus -> WNS %.1fps (poly-only: %.1fps)\n",
			meanRatio, withRc.WNS, res.Annotated.WNS)
	}

	if *orc {
		rep, err := f.VerifyChip(res.Place.Chip, flow.ORCOptions{Mode: opcMode, Workers: *jobs, Batch: *batch})
		if err != nil {
			fatal(err)
		}
		t := report.NewTable("full-chip ORC (process-window corners)",
			"kind", "count")
		t.AddF(0, "pinch", rep.ByKind[flow.Pinch])
		t.AddF(0, "bridge", rep.ByKind[flow.Bridge])
		t.AddF(0, "end pullback", rep.ByKind[flow.EndPullback])
		t.Fprint(os.Stdout)
		for i, h := range rep.Hotspots {
			if i >= 5 {
				fmt.Printf("  ... %d more\n", len(rep.Hotspots)-5)
				break
			}
			fmt.Printf("  %s at %v (%.1fnm) %s gate=%s\n", h.Kind, h.At, h.CDNM, h.Corner, h.Gate)
		}
	}

	var vm *flow.VariationModel
	if *mc > 0 || *corners {
		vm, err = flow.BuildVariationModel(res.Extractions, p.Window, p.Device.SigmaLRandomNM)
		if err != nil {
			fatal(err)
		}
		vm.Obs = tel.Sink
	}

	if *corners {
		mcr, err := f.MultiCornerSTA(res.Graph, cfg, vm, flow.MultiCornerSTAOptions{
			DefocusSteps:    *defocusSteps,
			DoseSteps:       *doseSteps,
			GuardbandKSigma: 3,
			Workers:         *jobs,
		})
		if err != nil {
			fatal(err)
		}
		mcr.SummaryTable().Fprint(os.Stdout)
		mcr.MergedTable(10).Fprint(os.Stdout)
	}

	if *mc > 0 {
		mcr, err := vm.MonteCarloWorkers(res.Graph, cfg, *mc, 1, *jobs)
		if err != nil {
			fatal(err)
		}
		slow, err := res.Graph.Analyze(cfg, vm.SlowCorner(3))
		if err != nil {
			fatal(err)
		}
		t := report.NewTable(fmt.Sprintf("Monte Carlo WNS over the process window (N=%d)", *mc),
			"statistic", "WNS(ps)")
		t.AddF(1, "mean", mcr.MeanWNS)
		t.AddF(1, "sigma", mcr.StdWNS)
		t.AddF(1, "p1", mcr.Percentile(0.01))
		t.AddF(1, "min sample", mcr.WNS[0])
		t.AddF(1, "worst-case corner", slow.WNS)
		t.Fprint(os.Stdout)
		fmt.Printf("corner pessimism vs MC minimum: %.1fps\n", mcr.WNS[0]-slow.WNS)
	}

	if f.Cache != nil {
		flow.CacheStatsTable(f.CacheStats()).Fprint(os.Stdout)
	}
	tel.Close()
}

func loadNetlist(file, design string, size int, seed int64) (*netlist.Netlist, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return netlist.ParseVerilog(f)
	}
	switch design {
	case "invchain":
		return netlist.InverterChain(size), nil
	case "rca":
		return netlist.RippleCarryAdder(size), nil
	case "mult":
		return netlist.ArrayMultiplier(size), nil
	case "rand":
		return netlist.RandomLogic(size, 16, seed), nil
	}
	return nil, fmt.Errorf("unknown design %q", design)
}

func parseMode(s string) (flow.OPCMode, error) {
	switch s {
	case "none":
		return flow.OPCNone, nil
	case "rule":
		return flow.OPCRule, nil
	case "model":
		return flow.OPCModel, nil
	}
	return 0, fmt.Errorf("unknown OPC mode %q", s)
}

func fatal(err error) { cli.Fatal("postopc-sta", err) }
