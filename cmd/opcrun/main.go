// opcrun applies OPC to a test structure and reports residual edge
// placement errors before and after correction, with an EPE histogram.
//
// Usage:
//
//	opcrun -width 90 -pitch 340 -mode model
//	opcrun -width 90 -pitch 0 -mode rule -model gauss
//	opcrun -width 90 -batch 64 -ledger run.ledger
package main

import (
	"flag"
	"fmt"
	"os"

	"time"

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
	batch := flag.Int("batch", 0, "after correction, image the mask N times through the batched aerial path and report windows/sec vs per-window (0 = skip)")
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

	if *batch > 1 {
		if err := batchSmoke(m, corrected, la, *batch); err != nil {
			fatal(err)
		}
	}
	tel.Close()
}

// batchSmoke images the corrected mask batch-many times through the model's
// batched aerial entry point and again per-window, reporting both rates.
// The results are bit-identical by the BatchModel contract; this smoke
// shows the amortization (FFT plan, filter bank, scratch) on a controlled
// pattern.
func batchSmoke(m litho.Model, corrected []geom.Polygon, la litho.LineArray, batch int) error {
	bm, ok := m.(litho.BatchModel)
	if !ok {
		return fmt.Errorf("model has no batched imaging path")
	}
	recipe := m.Recipe()
	rs := la.Rects()
	win := rs[0]
	for _, r := range rs[1:] {
		win = win.Union(r)
	}
	raster := litho.RasterizeInWindow(corrected, win.Expand(recipe.GuardNM), recipe.PixelNM)
	defer litho.RecycleRaster(raster)
	masks := make([]*geom.Raster, batch)
	for i := range masks {
		masks[i] = raster
	}
	corners := []litho.Corner{litho.Nominal}
	t0 := time.Now()
	if _, err := bm.AerialBatch(masks, corners); err != nil {
		return err
	}
	dBatch := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < batch; i++ {
		if _, err := m.AerialSeries(raster, corners); err != nil {
			return err
		}
	}
	dSingle := time.Since(t0)
	rate := func(d time.Duration) float64 { return float64(batch) / d.Seconds() }
	fmt.Printf("batched imaging: %d windows in %v (%.1f windows/sec) vs per-window %v (%.1f windows/sec)\n",
		batch, dBatch, rate(dBatch), dSingle, rate(dSingle))
	return nil
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
