// opcrun applies OPC to a test structure and reports residual edge
// placement errors before and after correction, with an EPE histogram.
//
// Usage:
//
//	opcrun -width 90 -pitch 340 -mode model
//	opcrun -width 90 -pitch 0 -mode rule -model gauss
//	opcrun -width 90 -model abbe -ledger run.ledger
package main

import (
	"flag"
	"fmt"
	"os"

	"postopc/internal/cli"
	"postopc/internal/geom"
	"postopc/internal/litho"
	"postopc/internal/obs"
	"postopc/internal/opc"
	"postopc/internal/pdk"
	"postopc/internal/report"
)

func main() {
	width := flag.Int64("width", 90, "drawn line width (nm)")
	pitch := flag.Int64("pitch", 340, "line pitch (nm, 0 = isolated)")
	count := flag.Int("count", 5, "lines in the array")
	mode := flag.String("mode", "model", "correction: rule | model")
	model := flag.String("model", "gauss", "imaging model: abbe | gauss")
	iters := flag.Int("iters", 8, "model-based OPC iterations")
	tel := cli.Telemetry("opcrun")
	flag.Parse()
	tel.Start()

	p := pdk.N90()
	var m litho.Model
	var err error
	switch *model {
	case "abbe":
		m, err = litho.NewAbbe(p.Litho)
	case "gauss":
		m, err = p.FastModel()
	default:
		err = fmt.Errorf("unknown model %q", *model)
	}
	if err != nil {
		fatal(err)
	}
	if im, ok := m.(interface{ Instrument(*obs.Sink) }); ok {
		im.Instrument(tel.Sink)
	}
	litho.InstrumentPools(tel.Sink)

	la := litho.LineArray{WidthNM: geom.Coord(*width), PitchNM: geom.Coord(*pitch),
		Count: *count, LengthNM: geom.Coord(*width) * 14}
	var drawn []geom.Polygon
	for _, r := range la.Rects() {
		drawn = append(drawn, r.Polygon())
	}

	// Baseline: EPE of the uncorrected mask.
	sp := tel.Sink.Start("opc.verify.baseline")
	targets := fragmentAll(drawn)
	epes0, st0, err := opc.Verify(m, drawn, nil, targets, litho.Nominal, 8)
	sp.End()
	if err != nil {
		fatal(err)
	}

	sp = tel.Sink.Start("opc.correct")
	var corrected []geom.Polygon
	var epes1 []float64
	var st1 opc.EPEStats
	switch *mode {
	case "rule":
		rt, err := opc.BuildRuleTable(m, geom.Coord(*width), []geom.Coord{160, 250, 420, 700, 1200})
		if err != nil {
			fatal(err)
		}
		var ctx geom.Region
		for _, pg := range drawn {
			ctx = append(ctx, geom.RegionFromPolygon(pg)...)
		}
		corrected, err = opc.RuleBased(drawn, ctx.Normalize(), rt, opc.DefaultFragmentOptions(), 1500)
		if err != nil {
			fatal(err)
		}
		epes1, st1, err = opc.Verify(m, corrected, nil, fragmentAll(drawn), litho.Nominal, 8)
		if err != nil {
			fatal(err)
		}
	case "model":
		opt := opc.DefaultOptions()
		opt.Iterations = *iters
		res, err := opc.ModelBased(m, drawn, nil, opt)
		if err != nil {
			fatal(err)
		}
		corrected = res.Polygons
		epes1 = res.FinalEPE
		st1 = opc.SummarizeEPE(epes1, 8)
		fmt.Printf("model OPC: %d iterations, %d simulations, converged %v, %d of %d fragments found no printed edge\n",
			res.Iterations, res.Sims, res.Converged, res.NoEdge, len(res.FinalEPE))
		fmt.Printf("fragments: %d within 1 nm, %d clamped at the bias limit, %d pulled back by the space rule and %d still moving in the last iteration\n",
			res.Within, res.Clamped, res.PulledBack, res.Moving)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	sp.End()

	tb := report.NewTable("residual EPE ("+*mode+" OPC, "+*model+" model)",
		"stage", "n", "mean(nm)", "sigma(nm)", "max|EPE|", "p95|EPE|", "violations")
	tb.AddF(2, "uncorrected", st0.Count, st0.Mean, st0.Std, st0.MaxAbs, st0.P95Abs, st0.Violations)
	tb.AddF(2, "corrected", st1.Count, st1.Mean, st1.Std, st1.MaxAbs, st1.P95Abs, st1.Violations)
	tb.Fprint(os.Stdout)

	h0 := opc.NewHistogram(epes0, -30, 30, 12)
	h1 := opc.NewHistogram(epes1, -30, 30, 12)
	report.Histogram(os.Stdout, "EPE before OPC (nm)", h0.LoNM, h0.WidthNM, h0.Counts, 40)
	report.Histogram(os.Stdout, "EPE after OPC (nm)", h1.LoNM, h1.WidthNM, h1.Counts, 40)

	// Mask complexity: vertex counts.
	v0, v1 := 0, 0
	for _, pg := range drawn {
		v0 += len(pg)
	}
	for _, pg := range corrected {
		v1 += len(pg)
	}
	fmt.Printf("mask vertices: %d drawn -> %d corrected\n", v0, v1)

	tel.Close()
}

func fragmentAll(polys []geom.Polygon) []*opc.FragmentedPolygon {
	var out []*opc.FragmentedPolygon
	for _, pg := range polys {
		fp, err := opc.Fragmentize(pg, opc.DefaultFragmentOptions())
		if err != nil {
			fatal(err)
		}
		out = append(out, fp)
	}
	return out
}

func fatal(err error) { cli.Fatal("opcrun", err) }
