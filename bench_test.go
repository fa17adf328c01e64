// Package postopc hosts the benchmark harness that regenerates every table
// and figure of the reconstructed evaluation (see DESIGN.md, experiments
// E1..E8, plus the ablation benches). Each benchmark prints the table or
// data series it reproduces on its first iteration:
//
//	go test -run=NONE -bench=E5 .
//	go test -run=NONE -bench=. -benchmem . | tee bench_output.txt
package postopc

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"postopc/internal/flow"
	"postopc/internal/geom"
	"postopc/internal/layout"
	"postopc/internal/litho"
	"postopc/internal/metro"
	"postopc/internal/netlist"
	"postopc/internal/obs"
	"postopc/internal/opc"
	"postopc/internal/pdk"
	"postopc/internal/place"
	"postopc/internal/report"
	"postopc/internal/route"
	"postopc/internal/sta"
	"postopc/internal/stdcell"
	"postopc/internal/timinglib"
)

// ---------------------------------------------------------------------------
// E1 — Printed CD through pitch and focus (litho substrate sanity; the
// proximity behaviour OPC exists to correct). Figure: CD(pitch) per focus.
// ---------------------------------------------------------------------------

func BenchmarkE1_CDThroughPitch(b *testing.B) {
	kit := pdk.N90()
	m, err := litho.NewAbbe(kit.Litho)
	if err != nil {
		b.Fatal(err)
	}
	width := kit.Rules.GateLengthNM
	pitches := []geom.Coord{250, 280, 340, 420, 520, 680, 900, 1360}
	focuses := []float64{0, 80, 120}
	for i := 0; i < b.N; i++ {
		tb := report.NewTable("E1: printed CD (nm) of a 90nm line through pitch and focus (Abbe)",
			"pitch(nm)", "f=0", "f=80", "f=120", "iso-dense bias @f0")
		var isoCD0 float64
		rows := make([][]float64, 0, len(pitches))
		for _, pt := range pitches {
			la := litho.LineArray{WidthNM: width, PitchNM: pt, Count: 7, LengthNM: 1600}
			mask := litho.RasterizeRects(la.Rects(), kit.Litho.PixelNM, kit.Litho.GuardNM)
			var corners []litho.Corner
			for _, f := range focuses {
				corners = append(corners, litho.Corner{DefocusNM: f, Dose: 1})
			}
			imgs, err := m.AerialSeries(mask, corners)
			if err != nil {
				b.Fatal(err)
			}
			centers := la.CenterXs()
			mid := centers[len(centers)/2]
			row := []float64{float64(pt)}
			for ci := range corners {
				res := imgs[ci].MeasureCD(litho.AxisX, 0, mid-float64(pt)/2, mid+float64(pt)/2,
					mid, kit.Litho.Threshold, kit.Litho.Polarity)
				row = append(row, res.CD)
			}
			rows = append(rows, row)
		}
		isoCD0 = rows[len(rows)-1][1]
		printOnce(b, i, func() {
			for _, r := range rows {
				tb.AddF(2, r[0], r[1], r[2], r[3], r[1]-isoCD0)
			}
			tb.Fprint(stdout)
			var series []report.Series
			for fi, f := range focuses {
				s := report.Series{Name: fmt.Sprintf("f=%.0f", f)}
				for _, r := range rows {
					s.X = append(s.X, r[0])
					s.Y = append(s.Y, r[1+fi])
				}
				series = append(series, s)
			}
			report.WriteSeriesCSV(stdout, series)
		})
	}
}

// ---------------------------------------------------------------------------
// E2 — Residual EPE after OPC: rule-based vs model-based vs uncorrected,
// on real standard-cell poly windows. Table: EPE stats; Figure: histogram.
// ---------------------------------------------------------------------------

func e2Netlist() *netlist.Netlist {
	n := &netlist.Netlist{Name: "cells", Inputs: []string{"a", "b", "c"}}
	n.AddGate("g_inv", "INV_X1", map[string]string{"A": "a", "Y": "n1"})
	n.AddGate("g_nand", "NAND3_X1", map[string]string{"A": "n1", "B": "b", "C": "c", "Y": "n2"})
	n.AddGate("g_xor", "XOR2_X1", map[string]string{"A": "n2", "B": "b", "Y": "n3"})
	n.AddGate("g_nor", "NOR2_X1", map[string]string{"A": "n3", "B": "c", "Y": "n4"})
	n.Outputs = []string{"n4"}
	return n
}

func BenchmarkE2_ResidualEPE(b *testing.B) {
	f := getFixtures(b)
	pl, err := f.flw.Place(e2Netlist(), place.Options{})
	if err != nil {
		b.Fatal(err)
	}
	nominal := []litho.Corner{litho.Nominal}
	for i := 0; i < b.N; i++ {
		tb := report.NewTable("E2: residual EPE on std-cell poly (interior fragments, nm)",
			"OPC", "n", "mean", "sigma", "max|EPE|", "p95|EPE|", "viol(>8nm)")
		var modelEPEs []float64
		for _, mode := range []flow.OPCMode{flow.OPCRule, flow.OPCModel} {
			exts, err := f.flw.ExtractGates(pl.Chip, nil, flow.ExtractOptions{Corners: nominal, Mode: mode})
			if err != nil {
				b.Fatal(err)
			}
			names := make([]string, 0, len(exts))
			for name := range exts {
				names = append(names, name)
			}
			sort.Strings(names)
			var all []float64
			for _, name := range names {
				all = append(all, exts[name].EPEValues...)
			}
			st := opc.SummarizeEPE(all, 8)
			if mode == flow.OPCModel {
				modelEPEs = all
			}
			tb.AddF(2, mode.String(), st.Count, st.Mean, st.Std, st.MaxAbs, st.P95Abs, st.Violations)
		}
		printOnce(b, i, func() {
			tb.Fprint(stdout)
			h := opc.NewHistogram(modelEPEs, -25, 25, 10)
			report.Histogram(stdout, "E2 figure: model-OPC residual EPE histogram (nm)",
				h.LoNM, h.WidthNM, h.Counts, 40)
		})
	}
}

// ---------------------------------------------------------------------------
// E3 — Post-OPC extracted gate CDs per cell, drawn vs printed, nominal and
// process-window corners (Table). Uses the physical Abbe model.
// ---------------------------------------------------------------------------

func BenchmarkE3_GateCDExtraction(b *testing.B) {
	f := getFixtures(b)
	pl, err := f.efl.Place(e2Netlist(), place.Options{})
	if err != nil {
		b.Fatal(err)
	}
	corners := flow.VariationCorners(f.kit.Window)
	for i := 0; i < b.N; i++ {
		exts, err := f.efl.ExtractGates(pl.Chip, nil, flow.ExtractOptions{Corners: corners, Mode: flow.OPCModel})
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func() {
			tb := report.NewTable("E3: post-OPC gate CDs by cell (Abbe; nm)",
				"gate", "site", "drawn", "nominal", "nonunif", "defocus120", "dose-5%", "dose+5%")
			for _, name := range []string{"g_inv", "g_nand", "g_xor", "g_nor"} {
				e := exts[name]
				for _, s := range e.Sites[:2] {
					tb.AddF(2, name, s.LocalName, s.DrawnL,
						s.PerCorner[0].MeanCD, s.PerCorner[0].Nonuniformity,
						s.PerCorner[1].MeanCD, s.PerCorner[2].MeanCD, s.PerCorner[3].MeanCD)
				}
			}
			tb.Fprint(stdout)
		})
	}
}

// ---------------------------------------------------------------------------
// E4 — Equivalent gate lengths: the non-rectangular printed gate collapsed
// to delay-EL and leakage-EL, which differ from drawn and from each other
// (Table).
// ---------------------------------------------------------------------------

func BenchmarkE4_EquivalentLength(b *testing.B) {
	f := getFixtures(b)
	pl, err := f.flw.Place(e2Netlist(), place.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		exts, err := f.flw.ExtractGates(pl.Chip, nil, flow.ExtractOptions{
			Corners: flow.VariationCorners(f.kit.Window), Mode: flow.OPCModel})
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func() {
			tb := report.NewTable("E4: equivalent gate lengths at nominal and defocus (nm)",
				"gate", "site", "drawn", "delayEL@nom", "leakEL@nom", "delayEL@f120", "leakEL@f120", "leak ratio @f120")
			dev := f.flw.TL.Dev
			for _, name := range []string{"g_inv", "g_nand", "g_xor", "g_nor"} {
				e := exts[name]
				for _, s := range e.Sites[:2] {
					n0, fd := s.PerCorner[0], s.PerCorner[1]
					leakRatio := dev.IoffPerUm(s.Kind, fd.LeakEL) / dev.IoffPerUm(s.Kind, s.DrawnL)
					tb.AddF(2, name, s.LocalName, s.DrawnL,
						n0.DelayEL, n0.LeakEL, fd.DelayEL, fd.LeakEL, leakRatio)
				}
			}
			tb.Fprint(stdout)
		})
	}
}

// ---------------------------------------------------------------------------
// E5 — Worst-case slack: drawn-CD sign-off (with and without the blanket
// guardband) vs post-OPC silicon-calibrated STA (Table; the paper's
// headline 36.4% class of shift appears against the guardbanded view).
// ---------------------------------------------------------------------------

func BenchmarkE5_SlackShift(b *testing.B) {
	f := getFixtures(b)
	exts := f.extractions(b)
	for i := 0; i < b.N; i++ {
		annotated, err := f.graph.Analyze(f.cfg, nominalAnnotations(b, exts))
		if err != nil {
			b.Fatal(err)
		}
		guard, err := f.graph.Analyze(f.cfg, sta.Annotations{"*": timinglib.Guardband(8)})
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func() {
			tb := report.NewTable("E5: worst-case slack, drawn vs post-OPC annotated ("+f.nl.Name+")",
				"analysis", "WNS(ps)", "TNS(ps)", "leak(nW)", "WNS shift vs drawn")
			tb.AddF(1, "drawn CD", f.drawn.WNS, f.drawn.TNS, f.drawn.LeakNW, "")
			g := sta.CompareSlacks(f.drawn, guard)
			a := sta.CompareSlacks(f.drawn, annotated)
			tb.AddF(1, "drawn + 8nm guardband", guard.WNS, guard.TNS, guard.LeakNW,
				fmt.Sprintf("%+.1f%%", g.WNSShiftPct))
			tb.AddF(1, "post-OPC annotated", annotated.WNS, annotated.TNS, annotated.LeakNW,
				fmt.Sprintf("%+.1f%%", a.WNSShiftPct))
			tb.Fprint(stdout)
			gb := sta.CompareSlacks(guard, annotated)
			fmt.Fprintf(stdout, "post-OPC vs guardbanded sign-off: worst-case slack %+.1f%% "+
				"(paper reports +36.4%% on its design)\n", gb.WNSShiftPct)
		})
	}
}

// ---------------------------------------------------------------------------
// E6 — Speed-path criticality reordering (Figure: rank scatter; Table:
// Spearman / Kendall / top-N overlap), with the OPC quality sweep showing
// that better OPC reduces — but does not remove — the reordering.
// ---------------------------------------------------------------------------

func BenchmarkE6_PathReordering(b *testing.B) {
	f := getFixtures(b)
	extsModel := f.extractions(b)
	extsNone := f.extractionsNoOPC(b)
	for i := 0; i < b.N; i++ {
		annModel, err := f.graph.Analyze(f.cfg, nominalAnnotations(b, extsModel))
		if err != nil {
			b.Fatal(err)
		}
		annNone, err := f.graph.Analyze(f.cfg, nominalAnnotations(b, extsNone))
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func() {
			tb := report.NewTable("E6: speed-path criticality reordering vs drawn ("+f.nl.Name+")",
				"annotation", "Spearman", "Kendall", "top-5 overlap", "top-10 overlap")
			cN := sta.CompareOrders(f.drawn, annNone, 5, 10)
			cM := sta.CompareOrders(f.drawn, annModel, 5, 10)
			tb.AddF(4, "no OPC (raw litho)", cN.Spearman, cN.KendallTau,
				cN.TopNOverlap[5], cN.TopNOverlap[10])
			tb.AddF(4, "model OPC residuals", cM.Spearman, cM.KendallTau,
				cM.TopNOverlap[5], cM.TopNOverlap[10])
			tb.Fprint(stdout)

			// Figure: drawn rank vs annotated rank for the 20 most
			// critical endpoints.
			rankOf := map[string]int{}
			for ri, ep := range annModel.Endpoints {
				rankOf[ep.Name] = ri + 1
			}
			s := report.Series{Name: "rank_drawn_vs_postopc"}
			for ri, ep := range f.drawn.Endpoints {
				if ri >= 20 {
					break
				}
				s.X = append(s.X, float64(ri+1))
				s.Y = append(s.Y, float64(rankOf[ep.Name]))
			}
			report.WriteSeriesCSV(stdout, []report.Series{s})
			side := report.NewTable("E6: ten worst paths side by side",
				"rank", "drawn endpoint", "slack(ps)", "post-OPC endpoint", "slack(ps)")
			for k := 0; k < 10 && k < len(f.drawn.Endpoints) && k < len(annModel.Endpoints); k++ {
				side.AddF(2, k+1,
					f.drawn.Endpoints[k].Name, f.drawn.Endpoints[k].SlackPS,
					annModel.Endpoints[k].Name, annModel.Endpoints[k].SlackPS)
			}
			side.Fprint(stdout)
		})
	}
}

// ---------------------------------------------------------------------------
// E7 — Realistic CD distributions vs worst-case corners in statistical
// timing (Figure: WNS distribution; Table: MC stats vs corner).
// ---------------------------------------------------------------------------

func BenchmarkE7_CornerVsMonteCarlo(b *testing.B) {
	f := getFixtures(b)
	exts := f.extractions(b)
	vm, err := flow.BuildVariationModel(exts, f.kit.Window, f.kit.Device.SigmaLRandomNM)
	if err != nil {
		b.Fatal(err)
	}
	const samples = 1000
	for i := 0; i < b.N; i++ {
		mc, err := vm.MonteCarlo(f.graph, f.cfg, samples, 1)
		if err != nil {
			b.Fatal(err)
		}
		slow, err := f.graph.Analyze(f.cfg, vm.SlowCorner(3))
		if err != nil {
			b.Fatal(err)
		}
		fast, err := f.graph.Analyze(f.cfg, vm.FastCorner(3))
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func() {
			tb := report.NewTable(fmt.Sprintf("E7: WNS — Monte Carlo (N=%d) vs worst-case corner (ps)", samples),
				"statistic", "WNS(ps)")
			tb.AddF(1, "MC mean", mc.MeanWNS)
			tb.AddF(1, "MC sigma", mc.StdWNS)
			tb.AddF(1, "MC p10", mc.Percentile(0.10))
			tb.AddF(1, "MC p1", mc.Percentile(0.01))
			tb.AddF(1, "MC min", mc.WNS[0])
			tb.AddF(1, "slow corner (3σ)", slow.WNS)
			tb.AddF(1, "fast corner (3σ)", fast.WNS)
			tb.Fprint(stdout)
			fmt.Fprintf(stdout, "corner pessimism beyond MC minimum: %.1fps (%.1fσ of the MC spread)\n",
				mc.WNS[0]-slow.WNS, (mc.WNS[0]-slow.WNS)/math.Max(mc.StdWNS, 1e-9))
			// Figure: WNS histogram.
			lo, hi := mc.WNS[0], mc.WNS[len(mc.WNS)-1]
			counts := make([]int, 12)
			for _, v := range mc.WNS {
				k := int((v - lo) / (hi - lo + 1e-9) * 12)
				if k > 11 {
					k = 11
				}
				counts[k]++
			}
			report.Histogram(stdout, "E7 figure: MC WNS distribution (ps)", lo, (hi-lo)/12, counts, 40)
		})
	}
}

// ---------------------------------------------------------------------------
// E8 — Selective OPC: aggressive correction only on tagged critical gates
// (Table: CD control and slack convergence vs number of tagged paths).
// ---------------------------------------------------------------------------

func BenchmarkE8_SelectiveOPC(b *testing.B) {
	f := getFixtures(b)
	extsModel := f.extractions(b)
	extsNone := f.extractionsNoOPC(b)
	fullAnn, err := f.graph.Analyze(f.cfg, nominalAnnotations(b, extsModel))
	if err != nil {
		b.Fatal(err)
	}
	critSet := map[string]bool{}
	for _, n := range f.drawn.CriticalGates(5) {
		critSet[n] = true
	}
	for i := 0; i < b.N; i++ {
		tb := report.NewTable("E8: selective OPC on tagged critical gates ("+f.nl.Name+")",
			"paths tagged", "gates OPC'd", "mean |ΔCD| on crit (nm)", "WNS(ps)", "ΔWNS vs full OPC (ps)")
		for _, k := range []int{0, 1, 2, 4, 8, 16} {
			mixed := map[string]*flow.GateExtraction{}
			for name, e := range extsNone {
				mixed[name] = e
			}
			var tagged []string
			if k > 0 {
				tagged = f.drawn.CriticalGates(k)
				for _, name := range tagged {
					mixed[name] = extsModel[name]
				}
			}
			res, err := f.graph.Analyze(f.cfg, nominalAnnotations(b, mixed))
			if err != nil {
				b.Fatal(err)
			}
			tb.AddF(2, k, len(tagged), meanAbsCDErr(mixed, critSet), res.WNS, res.WNS-fullAnn.WNS)
		}
		tb.AddF(2, "all", len(extsModel), meanAbsCDErr(extsModel, critSet), fullAnn.WNS, 0.0)
		printOnce(b, i, func() { tb.Fprint(stdout) })
	}
}

func meanAbsCDErr(exts map[string]*flow.GateExtraction, gates map[string]bool) float64 {
	var sum float64
	n := 0
	for name, e := range exts {
		if !gates[name] {
			continue
		}
		for _, s := range e.Sites {
			sum += math.Abs(s.PerCorner[0].MeanCD - s.DrawnL)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ---------------------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md)
// ---------------------------------------------------------------------------

// BenchmarkAblation_SourceSamples sweeps Abbe source sampling density:
// accuracy (dense-line CD) vs simulation cost.
func BenchmarkAblation_SourceSamples(b *testing.B) {
	kit := pdk.N90()
	for i := 0; i < b.N; i++ {
		tb := report.NewTable("ablation: Abbe source sampling rings",
			"rings", "source points", "dense CD(nm)", "ΔCD vs 5 rings", "sim time")
		type row struct {
			rings, pts int
			cd         float64
			dur        time.Duration
		}
		var rows []row
		for _, rings := range []int{1, 2, 3, 4, 5} {
			rec := kit.Litho
			rec.SourceRings = rings
			m, err := litho.NewAbbe(rec)
			if err != nil {
				b.Fatal(err)
			}
			la := litho.LineArray{WidthNM: 90, PitchNM: 340, Count: 7, LengthNM: 1600}
			mask := litho.RasterizeRects(la.Rects(), rec.PixelNM, rec.GuardNM)
			t0 := time.Now()
			im, err := m.Aerial(mask, litho.Nominal)
			if err != nil {
				b.Fatal(err)
			}
			dur := time.Since(t0)
			centers := la.CenterXs()
			mid := centers[len(centers)/2]
			res := im.MeasureCD(litho.AxisX, 0, mid-170, mid+170, mid, rec.Threshold, rec.Polarity)
			rows = append(rows, row{rings, len(m.SourcePoints()), res.CD, dur})
		}
		printOnce(b, i, func() {
			ref := rows[len(rows)-1].cd
			for _, r := range rows {
				tb.AddF(2, r.rings, r.pts, r.cd, r.cd-ref, r.dur.Round(time.Millisecond).String())
			}
			tb.Fprint(stdout)
		})
	}
}

// BenchmarkAblation_OPCFragmentation sweeps the OPC fragment length:
// residual EPE vs mask complexity.
func BenchmarkAblation_OPCFragmentation(b *testing.B) {
	kit := pdk.N90()
	m, err := kit.FastModel()
	if err != nil {
		b.Fatal(err)
	}
	drawn := []geom.Polygon{
		geom.R(-45, -500, 45, 500).Polygon(),
		geom.R(295, -500, 385, 500).Polygon(),
		geom.R(-385, -500, -295, 500).Polygon(),
	}
	for i := 0; i < b.N; i++ {
		tb := report.NewTable("ablation: OPC fragment length (model OPC, 3-line cluster)",
			"fragment(nm)", "fragments", "p95|EPE|(nm)", "max|EPE| interior(nm)", "sims")
		for _, frag := range []geom.Coord{80, 110, 140, 200, 280} {
			opt := opc.DefaultOptions()
			opt.Fragment.LengthNM = frag
			opt.Fragment.CornerNM = frag / 2
			res, err := opc.ModelBased(m, drawn, nil, opt)
			if err != nil {
				b.Fatal(err)
			}
			nf := 0
			var interior []float64
			idx := 0
			for _, fp := range res.Fragmented {
				nf += len(fp.Frags)
				for _, fr := range fp.Frags {
					if fr.Control.Y > -400 && fr.Control.Y < 400 {
						interior = append(interior, res.FinalEPE[idx])
					}
					idx++
				}
			}
			st := opc.SummarizeEPE(interior, 8)
			tb.AddF(2, int64(frag), nf, st.P95Abs, st.MaxAbs, res.Sims)
		}
		printOnce(b, i, func() { tb.Fprint(stdout) })
	}
}

// BenchmarkAblation_SliceCount sweeps the CD-extraction slice count:
// equivalent-length convergence.
func BenchmarkAblation_SliceCount(b *testing.B) {
	f := getFixtures(b)
	pl, err := f.flw.Place(e2Netlist(), place.Options{})
	if err != nil {
		b.Fatal(err)
	}
	inst := pl.Chip.FindInstance("g_nand")
	for i := 0; i < b.N; i++ {
		type meas struct {
			slices int
			d, l   float64
		}
		var rows []meas
		for _, slices := range []int{3, 5, 9, 17, 33} {
			fl := *f.flw
			fl.CDX.Slices = slices
			ext, err := fl.ExtractInstance(pl.Chip, inst, flow.ExtractOptions{Mode: flow.OPCModel})
			if err != nil {
				b.Fatal(err)
			}
			cc := ext.Sites[0].PerCorner[0]
			rows = append(rows, meas{slices, cc.DelayEL, cc.LeakEL})
		}
		printOnce(b, i, func() {
			ref := rows[len(rows)-1]
			tb := report.NewTable("ablation: CD slices per gate (NAND3 NMOS finger)",
				"slices", "delayEL(nm)", "err vs 33", "leakEL(nm)", "err vs 33")
			for _, r := range rows {
				tb.AddF(3, r.slices, r.d, r.d-ref.d, r.l, r.l-ref.l)
			}
			tb.Fprint(stdout)
		})
	}
}

// BenchmarkAblation_FastModel quantifies the Gaussian fast model's CD
// fidelity against the Abbe reference through pitch and focus.
func BenchmarkAblation_FastModel(b *testing.B) {
	kit := pdk.N90()
	ab, err := litho.NewAbbe(kit.Litho)
	if err != nil {
		b.Fatal(err)
	}
	ga, err := kit.FastModel()
	if err != nil {
		b.Fatal(err)
	}
	measure := func(m litho.Model, pitch geom.Coord, focus float64) float64 {
		r := m.Recipe()
		la := litho.LineArray{WidthNM: 90, PitchNM: pitch, Count: 7, LengthNM: 1600}
		mask := litho.RasterizeRects(la.Rects(), r.PixelNM, r.GuardNM)
		im, err := m.Aerial(mask, litho.Corner{DefocusNM: focus, Dose: 1})
		if err != nil {
			b.Fatal(err)
		}
		centers := la.CenterXs()
		mid := centers[len(centers)/2]
		res := im.MeasureCD(litho.AxisX, 0, mid-float64(pitch)/2, mid+float64(pitch)/2,
			mid, r.Threshold, r.Polarity)
		return res.CD
	}
	for i := 0; i < b.N; i++ {
		tb := report.NewTable("ablation: fast Gaussian model vs Abbe reference (printed CD, nm)",
			"pitch(nm)", "focus(nm)", "Abbe", "Gaussian", "ΔCD")
		maxErr := 0.0
		for _, pt := range []geom.Coord{280, 340, 420, 680} {
			for _, fz := range []float64{0, 120} {
				a := measure(ab, pt, fz)
				g := measure(ga, pt, fz)
				if d := math.Abs(a - g); d > maxErr {
					maxErr = d
				}
				tb.AddF(2, int64(pt), fz, a, g, g-a)
			}
		}
		printOnce(b, i, func() {
			tb.Fprint(stdout)
			fmt.Fprintf(stdout, "max |ΔCD| fast vs Abbe: %.2fnm\n", maxErr)
		})
	}
}

// BenchmarkAblation_WindowCache measures the content-addressed pattern
// cache on full-chip extraction + ORC: wall time with and without the
// cache, the hit rate, and the resulting speedup.
//
// The repeated-context chips are DatapathRegular blocks (identical bit
// slices) placed as a bit-slice strip — one cell per row, the classic
// datapath layout style — so each pipeline stage's level-ordered run of
// identical cells spans many rows and gate windows repeat both along and
// across rows; the ORC tile is set to two row heights, the vertical period
// of the alternating row flip. The shuffled eval datapath is the
// adversarial contrast: almost no window recurs there, so the cache can
// only break even and the bench reports its pure overhead. Cached and
// uncached runs are byte-identical by construction; this bench quantifies
// only the cost side. Under -short only a small repeated-context block
// runs, sized for the CI smoke step.
func BenchmarkAblation_WindowCache(b *testing.B) {
	f := getFixtures(b)
	// One NAND2_X2 (the widest slice cell) per placement row.
	strip := place.Options{RowWidthNM: 2380}
	stripTile := geom.Coord(2 * 2600)
	type spec struct {
		name   string
		nl     *netlist.Netlist
		place  place.Options
		tileNM geom.Coord
	}
	var specs []spec
	if testing.Short() {
		specs = []spec{{"strip dp12x3", netlist.DatapathRegular(12, 3, 3), strip, stripTile}}
	} else {
		specs = []spec{
			{"strip dp32x10", netlist.DatapathRegular(32, 10, 3), strip, stripTile},
			{"shuffled " + f.nl.Name, f.nl, place.Options{}, 0},
			{"strip dp48x12", netlist.DatapathRegular(48, 12, 5), strip, stripTile},
		}
	}
	newFlow := func() *flow.Flow {
		fl, err := flow.New(f.kit, flow.Config{Fast: true})
		if err != nil {
			b.Fatal(err)
		}
		return fl
	}
	runChip := func(fl *flow.Flow, chip *layout.Chip, tileNM geom.Coord) time.Duration {
		t0 := time.Now()
		if _, err := fl.ExtractGates(chip, nil, flow.ExtractOptions{Mode: flow.OPCModel}); err != nil {
			b.Fatal(err)
		}
		if _, err := fl.VerifyChip(chip, flow.ORCOptions{Mode: flow.OPCModel, TileNM: tileNM}); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	for i := 0; i < b.N; i++ {
		tb := report.NewTable("ablation: pattern cache on full-chip extraction + ORC (fast model)",
			"design", "gates", "uncached", "cached", "speedup", "lookups", "hit rate")
		hitS := report.Series{Name: "cache_hit_rate"}
		spdS := report.Series{Name: "cache_speedup"}
		for _, sp := range specs {
			plain := newFlow()
			pl, err := plain.Place(sp.nl, sp.place)
			if err != nil {
				b.Fatal(err)
			}
			tPlain := runChip(plain, pl.Chip, sp.tileNM)
			cached := newFlow().EnableCache(0)
			tCached := runChip(cached, pl.Chip, sp.tileNM)
			st := cached.CacheStats()
			speedup := float64(tPlain) / float64(tCached)
			tb.AddF(2, sp.name, len(sp.nl.Gates),
				tPlain.Round(time.Millisecond).String(), tCached.Round(time.Millisecond).String(),
				speedup, st.Lookups(), st.HitRate())
			gates := float64(len(sp.nl.Gates))
			hitS.X = append(hitS.X, gates)
			hitS.Y = append(hitS.Y, st.HitRate())
			spdS.X = append(spdS.X, gates)
			spdS.Y = append(spdS.Y, speedup)
		}
		printOnce(b, i, func() {
			tb.Fprint(stdout)
			report.WriteSeriesCSV(stdout, []report.Series{hitS, spdS})
		})
	}
}

// throughputStrip is the chip of the throughput benches: a repeated-context
// strip, DatapathRegular(32,10,3) placed one cell per row (a 12x3 block
// under -short, sized for the CI smoke step), with ORC tiles two row
// heights tall.
type throughputStrip struct {
	kit  *pdk.PDK
	name string
	chip *layout.Chip
}

const throughputTileNM = geom.Coord(2 * 2600)

func newThroughputStrip(b *testing.B) *throughputStrip {
	nl := netlist.DatapathRegular(32, 10, 3)
	if testing.Short() {
		nl = netlist.DatapathRegular(12, 3, 3)
	}
	ts := &throughputStrip{kit: getFixtures(b).kit, name: nl.Name}
	pl, err := ts.flow(b).Place(nl, place.Options{RowWidthNM: 2380})
	if err != nil {
		b.Fatal(err)
	}
	ts.chip = pl.Chip
	return ts
}

// flow returns a fresh fast-model flow: its pattern cache, when enabled,
// starts cold.
func (ts *throughputStrip) flow(b *testing.B) *flow.Flow {
	fl, err := flow.New(ts.kit, flow.Config{Fast: true})
	if err != nil {
		b.Fatal(err)
	}
	return fl
}

// run extracts every gate and runs ORC over the strip at the given batch
// size, returning the windows pushed through imaging (gate windows plus
// ORC tiles) and the wall time.
func (ts *throughputStrip) run(b *testing.B, fl *flow.Flow, batch int) (int, time.Duration) {
	t0 := time.Now()
	exts, err := fl.ExtractGates(ts.chip, nil, flow.ExtractOptions{Mode: flow.OPCModel, Batch: batch})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := fl.VerifyChip(ts.chip, flow.ORCOptions{Mode: flow.OPCModel, TileNM: throughputTileNM, Batch: batch})
	if err != nil {
		b.Fatal(err)
	}
	return len(exts) + rep.Tiles, time.Since(t0)
}

// BenchmarkThroughput_Batch measures multi-window throughput of full-chip
// extraction + ORC on the repeated-context strip, in windows/sec/core:
// windows pushed through imaging divided by wall time and by GOMAXPROCS.
// Four modes share the chip and the core budget: batch sizes 1 and 16 of
// the one window path, each with the pattern cache off and on. All four
// produce byte-identical results (pinned by the goldens in
// internal/flow/batch_test.go); this bench quantifies only the rate. The
// reported speedup is "batch 16 + cache" over "batch 1". Recorded in
// BENCH_throughput.json; `make bench-throughput` runs it under -short.
func BenchmarkThroughput_Batch(b *testing.B) {
	ts := newThroughputStrip(b)
	modes := []struct {
		name  string
		batch int
		cache bool
	}{
		{"batch 1", 1, false},
		{"batch 1 + cache", 1, true},
		{"batch 16", 16, false},
		{"batch 16 + cache", 16, true},
	}
	cores := float64(runtime.GOMAXPROCS(0))
	for i := 0; i < b.N; i++ {
		tb := report.NewTable("throughput: window path, strip "+ts.name+" (fast model)",
			"mode", "windows", "wall", "windows/sec", "windows/sec/core", "speedup")
		rateS := report.Series{Name: "windows_per_sec_per_core"}
		var base time.Duration
		var speedup float64
		for mi, md := range modes {
			fl := ts.flow(b)
			if md.cache {
				fl.EnableCache(0)
			}
			windows, wall := ts.run(b, fl, md.batch)
			if mi == 0 {
				base = wall
			}
			speedup = float64(base) / float64(wall)
			rate := float64(windows) / wall.Seconds()
			tb.AddF(2, md.name, windows, wall.Round(time.Millisecond).String(), rate, rate/cores, speedup)
			rateS.X = append(rateS.X, float64(mi))
			rateS.Y = append(rateS.Y, rate/cores)
		}
		b.ReportMetric(speedup, "speedup")
		printOnce(b, i, func() {
			tb.Fprint(stdout)
			report.WriteSeriesCSV(stdout, []report.Series{rateS})
		})
	}
}

// BenchmarkThroughput_GOMAXPROCS measures how the window path scales with
// scheduler parallelism: the strip runs at GOMAXPROCS 1 and 2, batch sizes
// 1 and 16, cache on, with an instrumented sink. The table reports
// windows/sec and the pool's worker time, summed over the extraction and
// ORC fan-outs: busy time inside batches (par.worker_busy_ns) and the rest
// of each worker's life (par.queue_wait_ns). A worker exits when no batch
// is left, so idle tails show in utilization, busy / (wall × GOMAXPROCS),
// not in the wait time. Results are byte-identical across the series; only
// the rate and the utilization change. Recorded in BENCH_throughput.json.
func BenchmarkThroughput_GOMAXPROCS(b *testing.B) {
	ts := newThroughputStrip(b)
	histSum := func(snap obs.Snapshot, name string) float64 {
		for _, h := range snap.Histograms {
			if h.Name == name {
				return h.Sum
			}
		}
		return 0
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for i := 0; i < b.N; i++ {
		tb := report.NewTable("throughput: window path GOMAXPROCS series, strip "+ts.name+" (fast model, cache on)",
			"gomaxprocs", "batch", "windows", "wall", "windows/sec", "worker busy ms", "worker wait ms", "utilization")
		rateS := report.Series{Name: "windows_per_sec"}
		for _, procs := range []int{1, 2} {
			for _, batch := range []int{1, 16} {
				runtime.GOMAXPROCS(procs)
				sink := obs.NewSink()
				fl := ts.flow(b).EnableCache(0).EnableObs(sink)
				windows, wall := ts.run(b, fl, batch)
				snap := sink.Metrics.Snapshot()
				busy := histSum(snap, "par.worker_busy_ns")
				wait := histSum(snap, "par.queue_wait_ns")
				util := busy / (float64(wall) * float64(procs))
				rate := float64(windows) / wall.Seconds()
				tb.AddF(2, procs, batch, windows, wall.Round(time.Millisecond).String(), rate,
					fmt.Sprintf("%.0f", busy/1e6), fmt.Sprintf("%.1f", wait/1e6), util)
				rateS.X = append(rateS.X, float64(procs))
				rateS.Y = append(rateS.Y, rate)
			}
		}
		printOnce(b, i, func() {
			tb.Fprint(stdout)
			report.WriteSeriesCSV(stdout, []report.Series{rateS})
		})
	}
}

// ---------------------------------------------------------------------------
// Extension benches: the companion paper's proposed future work.
// ---------------------------------------------------------------------------

// BenchmarkExt_ContactLayer exercises multi-layer extraction: printed
// contact dimensions through the process window and the contact-resistance
// timing derate they imply.
func BenchmarkExt_ContactLayer(b *testing.B) {
	f := getFixtures(b)
	nl := netlist.InverterChain(6)
	pl, err := f.flw.Place(nl, place.Options{})
	if err != nil {
		b.Fatal(err)
	}
	g, err := f.flw.BuildGraph(nl)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sta.DefaultConfig(2000)
	corners := []litho.Corner{
		litho.Nominal,
		{DefocusNM: 60, Dose: 1},
		{DefocusNM: 120, Dose: 1},
		{DefocusNM: 0, Dose: 0.95},
	}
	for i := 0; i < b.N; i++ {
		tb := report.NewTable("extension: contact-layer extraction (Abbe dark field, u2)",
			"corner", "mean printed W(nm)", "area ratio", "Rc derate", "chain WNS(ps)")
		inst := pl.Chip.FindInstance("u2")
		base, err := g.Analyze(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range corners {
			cext := map[string]*flow.ContactExtraction{}
			for _, gate := range nl.Gates {
				in := pl.Chip.FindInstance(gate.Name)
				ce, err := f.flw.ExtractContacts(pl.Chip, in, c)
				if err != nil {
					b.Fatal(err)
				}
				cext[gate.Name] = ce
			}
			res, err := g.Analyze(cfg, f.flw.WithContacts(sta.Annotations{}, cext))
			if err != nil {
				b.Fatal(err)
			}
			ce := cext[inst.Name]
			var meanW float64
			for _, ct := range ce.Contacts {
				meanW += ct.WNM
			}
			meanW /= float64(len(ce.Contacts))
			tb.AddF(3, c.String(), meanW, ce.MeanAreaRatio, 1/math.Max(ce.MeanAreaRatio, 0.25), res.WNS)
		}
		tb.AddF(3, "ideal contacts", 120.0, 1.0, 1.0, base.WNS)
		printOnce(b, i, func() { tb.Fprint(stdout) })
	}
}

// BenchmarkExt_FullChipORC runs the tiled post-OPC verification pass over a
// placed design through the process window, with and without OPC.
func BenchmarkExt_FullChipORC(b *testing.B) {
	f := getFixtures(b)
	pl, err := f.flw.Place(netlist.RippleCarryAdder(8), place.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tb := report.NewTable("extension: full-chip ORC hotspots (rca8, fast model, window corners)",
			"OPC", "tiles", "CD scans", "pinches", "bridges", "end pullbacks")
		for _, mode := range []flow.OPCMode{flow.OPCNone, flow.OPCModel} {
			rep, err := f.flw.VerifyChip(pl.Chip, flow.ORCOptions{Mode: mode})
			if err != nil {
				b.Fatal(err)
			}
			tb.AddF(0, mode.String(), rep.Tiles, rep.ScannedCDs,
				rep.ByKind[flow.Pinch], rep.ByKind[flow.Bridge], rep.ByKind[flow.EndPullback])
		}
		printOnce(b, i, func() { tb.Fprint(stdout) })
	}
}

// BenchmarkAblation_MCWorkers sweeps the Monte Carlo worker count on the
// evaluation design: workers=1 is the serial baseline, workers=0 the
// GOMAXPROCS default (the speedup BenchmarkE7_CornerVsMonteCarlo inherits).
// Results are seed-deterministic and identical across the sweep.
func BenchmarkAblation_MCWorkers(b *testing.B) {
	f := getFixtures(b)
	exts := f.extractions(b)
	vm, err := flow.BuildVariationModel(exts, f.kit.Window, f.kit.Device.SigmaLRandomNM)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 0} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := vm.MonteCarloWorkers(f.graph, f.cfg, 200, 1, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_ORCWorkers sweeps the tile worker count of the
// full-chip ORC pass (the speedup BenchmarkExt_FullChipORC inherits).
func BenchmarkAblation_ORCWorkers(b *testing.B) {
	f := getFixtures(b)
	pl, err := f.flw.Place(netlist.RippleCarryAdder(8), place.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 0} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.flw.VerifyChip(pl.Chip, flow.ORCOptions{Mode: flow.OPCModel, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fabricateExtractions builds synthetic post-OPC extractions for the given
// gates: real site names and drawn lengths from the cell library, with a
// deterministic per-gate CD response at the four VariationCorners. The
// multi-corner STA benches are about the timing engine, not litho — this
// stands in for an ExtractGates pass at a tiny fraction of its cost.
func fabricateExtractions(b *testing.B, lib *stdcell.Library, nl *netlist.Netlist,
	gates []string, corners []litho.Corner) map[string]*flow.GateExtraction {
	b.Helper()
	exts := map[string]*flow.GateExtraction{}
	for i, name := range gates {
		gi := nl.FindGate(name)
		if gi < 0 {
			b.Fatalf("tagged gate %s not in netlist", name)
		}
		cell := nl.Gates[gi].Cell
		info, err := lib.Get(cell)
		if err != nil {
			b.Fatal(err)
		}
		e := &flow.GateExtraction{Gate: name, Cell: cell, Mode: flow.OPCModel}
		for si, site := range info.Layout.Gates {
			// Deterministic, site- and gate-dependent response: a nominal
			// bias plus distinct defocus and dose sensitivities.
			d0 := float64(site.L()) + 1.2 + 0.15*float64((i+si)%7)
			mk := func(c litho.Corner, delay, leak float64) flow.CornerCD {
				return flow.CornerCD{Corner: c, MeanCD: delay, Nonuniformity: 1.5,
					DelayEL: delay, LeakEL: leak, Printed: true}
			}
			e.Sites = append(e.Sites, flow.SiteCD{
				LocalName: site.Name, Kind: site.Kind, DrawnL: float64(site.L()),
				PerCorner: []flow.CornerCD{
					mk(corners[0], d0, d0-0.6),
					mk(corners[1], d0+2.5, d0+1.4),
					mk(corners[2], d0+1.6, d0+0.9),
					mk(corners[3], d0-1.6, d0-0.9),
				},
			})
		}
		exts[name] = e
	}
	return exts
}

// BenchmarkMultiCornerSTA measures multi-corner process-window sign-off on
// the repeated-context datapath chip (DatapathRegular, the cache bench's
// strip design): a full analysis per corner vs incremental re-analysis from
// the nominal baseline, as single analyses and over the whole (defocus ×
// dose × guardband) grid, serial and corner-parallel, and 200 Monte Carlo
// samples, serial and sample-parallel. Only the tagged critical gates carry
// annotations — the TagTopK regime the incremental engine exploits.
// Reference numbers: BENCH_sta.json.
func BenchmarkMultiCornerSTA(b *testing.B) {
	f := getFixtures(b)
	chains, depth := 64, 10
	if testing.Short() {
		chains, depth = 12, 3
	}
	nl := netlist.DatapathRegular(chains, depth, 3)
	g, err := f.flw.BuildGraph(nl)
	if err != nil {
		b.Fatal(err)
	}
	probe, err := g.Analyze(sta.DefaultConfig(100000), nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sta.DefaultConfig(1.03 * (100000 - probe.WNS))
	cfg.KPaths = 10
	drawn, err := g.Analyze(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	tagged := drawn.CriticalGates(4)
	exts := fabricateExtractions(b, f.flw.Lib, nl, tagged, flow.VariationCorners(f.kit.Window))
	vm, err := flow.BuildVariationModel(exts, f.kit.Window, f.kit.Device.SigmaLRandomNM)
	if err != nil {
		b.Fatal(err)
	}
	gridOpt := flow.MultiCornerSTAOptions{DefocusSteps: 2, DoseSteps: 1, GuardbandKSigma: 3}
	grid := vm.CornerGrid(gridOpt)
	base, err := g.Analyze(cfg, grid[0].Ann)
	if err != nil {
		b.Fatal(err)
	}
	ann := grid[len(grid)-2].Ann // a non-trivial grid corner
	fmt.Fprintf(stdout, "# multi-corner bench: %s, %d gates, %d tagged, %d corners\n",
		nl.Name, len(nl.Gates), len(tagged), len(grid))

	b.Run("analyze/full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.Analyze(cfg, ann); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("analyze/incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.AnalyzeIncremental(cfg, ann, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	mcOpts := []struct {
		name string
		opt  sta.MultiCornerOptions
	}{
		{"grid/full-serial", sta.MultiCornerOptions{Full: true, Workers: 1}},
		{"grid/incremental-serial", sta.MultiCornerOptions{Workers: 1}},
		{"grid/incremental-parallel", sta.MultiCornerOptions{}},
	}
	for _, m := range mcOpts {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := g.MultiCorner(cfg, grid, m.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, w := range []struct {
		name    string
		workers int
	}{{"montecarlo/serial", 1}, {"montecarlo/parallel", 0}} {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := vm.MonteCarloWorkers(g, cfg, 200, 7, w.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExt_SSTA validates first-order canonical statistical timing
// against Monte Carlo on the evaluation design — the "more rigorous
// statistical timing" direction the paper's abstract points at.
func BenchmarkExt_SSTA(b *testing.B) {
	f := getFixtures(b)
	exts := f.extractions(b)
	vm, err := flow.BuildVariationModel(exts, f.kit.Window, f.kit.Device.SigmaLRandomNM)
	if err != nil {
		b.Fatal(err)
	}
	arcs, err := f.flw.CanonicalArcs(f.nl, vm)
	if err != nil {
		b.Fatal(err)
	}
	p := sta.DefaultSSTAParams()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		ss, err := f.graph.AnalyzeSSTA(f.cfg, p, arcs)
		if err != nil {
			b.Fatal(err)
		}
		tSSTA := time.Since(t0)
		t0 = time.Now()
		mc, err := vm.MonteCarlo(f.graph, f.cfg, 1000, 2)
		if err != nil {
			b.Fatal(err)
		}
		tMC := time.Since(t0)
		printOnce(b, i, func() {
			tb := report.NewTable("extension: canonical SSTA vs Monte Carlo (WNS, ps)",
				"statistic", "SSTA", "MC (N=1000)")
			tb.AddF(2, "mean", ss.WNS.MeanTotal(p), mc.MeanWNS)
			tb.AddF(2, "sigma", ss.WNS.Sigma(p), mc.StdWNS)
			tb.AddF(2, "mean-3sigma", ss.WNS.Quantile(p, -3), mc.Percentile(0.001))
			tb.Fprint(stdout)
			fmt.Fprintf(stdout, "runtime: SSTA %v vs MC %v (%.0fx)\n",
				tSSTA.Round(time.Microsecond), tMC.Round(time.Millisecond),
				float64(tMC)/float64(tSSTA))
		})
	}
}

// BenchmarkExt_SampledMetrology runs the design-driven-metrology flavour of
// the flow: extract only class representatives, spread class means to the
// whole chip, and compare the resulting timing against full extraction.
func BenchmarkExt_SampledMetrology(b *testing.B) {
	f := getFixtures(b)
	full := f.extractions(b)
	plan := metro.NewPlan(f.plc.Chip, 1)
	cov := plan.Coverage()
	// Full-extraction per-site delay ELs at nominal, keyed gate/local.
	measured := map[string]float64{}
	for gate, e := range full {
		for _, s := range e.Sites {
			measured[gate+"/"+s.LocalName] = s.PerCorner[0].DelayEL
		}
	}
	for i := 0; i < b.N; i++ {
		// "Measure" only the plan's sites, infer the rest.
		sampleVals := map[string]float64{}
		for _, s := range plan.Selected {
			sampleVals[s.Gate+"/"+s.Local] = measured[s.Gate+"/"+s.Local]
		}
		inf, err := plan.Infer(sampleVals)
		if err != nil {
			b.Fatal(err)
		}
		preds := inf.PredictAll()
		// Prediction error vs full extraction.
		var sum2 float64
		worst := 0.0
		n := 0
		for key, want := range measured {
			got, ok := preds[key]
			if !ok {
				continue
			}
			d := got - want
			sum2 += d * d
			if math.Abs(d) > worst {
				worst = math.Abs(d)
			}
			n++
		}
		rms := math.Sqrt(sum2 / float64(n))
		// Timing with inferred annotations.
		annFull, err := f.graph.Analyze(f.cfg, nominalAnnotations(b, full))
		if err != nil {
			b.Fatal(err)
		}
		annPred := sta.Annotations{}
		for gate := range full {
			byLocal := map[string]float64{}
			for key, v := range preds {
				if strings.HasPrefix(key, gate+"/") {
					byLocal[strings.TrimPrefix(key, gate+"/")] = v
				}
			}
			lengths := byLocal
			annPred[gate] = func(site layout.GateSite) timinglib.Lengths {
				if l, ok := lengths[site.Name]; ok {
					return timinglib.Lengths{DelayL: l, LeakL: l}
				}
				return timinglib.Drawn(site)
			}
		}
		resPred, err := f.graph.Analyze(f.cfg, annPred)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func() {
			tb := report.NewTable("extension: design-driven metrology sampling vs full extraction",
				"metric", "value")
			tb.AddF(0, "gate sites on chip", cov.TotalSites)
			tb.AddF(0, "context classes", cov.Classes)
			tb.AddF(0, "sites measured", cov.Measured)
			tb.AddF(3, "sampling fraction", cov.SamplingFraction)
			tb.AddF(3, "delayEL RMS error (nm)", rms)
			tb.AddF(3, "delayEL worst error (nm)", worst)
			tb.AddF(2, "WNS full extraction (ps)", annFull.WNS)
			tb.AddF(2, "WNS sampled metrology (ps)", resPred.WNS)
			tb.Fprint(stdout)
			// Plan compression depends on layout repetitiveness: regular
			// designs compress far better than the shuffled datapath.
			cmp := report.NewTable("metrology plan compression by design",
				"design", "sites", "classes", "sampling fraction")
			for _, spec := range []struct {
				name string
				nl   func() *netlist.Netlist
			}{
				{"invchain60", func() *netlist.Netlist { return netlist.InverterChain(60) }},
				{"rca8", func() *netlist.Netlist { return netlist.RippleCarryAdder(8) }},
				{"dp32x10 (eval)", func() *netlist.Netlist { return f.nl }},
			} {
				pl2, err := f.flw.Place(spec.nl(), place.Options{})
				if err != nil {
					b.Fatal(err)
				}
				c2 := metro.NewPlan(pl2.Chip, 1).Coverage()
				cmp.AddF(3, spec.name, c2.TotalSites, c2.Classes, c2.SamplingFraction)
			}
			cmp.Fprint(stdout)
		})
	}
}

// BenchmarkExt_RoutedWires compares the flat, HPWL and routed wire-load
// models on the evaluation design.
func BenchmarkExt_RoutedWires(b *testing.B) {
	f := getFixtures(b)
	for i := 0; i < b.N; i++ {
		cfgFlat := f.cfg
		flat, err := f.graph.Analyze(cfgFlat, nil)
		if err != nil {
			b.Fatal(err)
		}
		hp, err := f.flw.WireLoads(f.plc.Chip, f.nl)
		if err != nil {
			b.Fatal(err)
		}
		cfgH := f.cfg
		cfgH.WireLoads = hp
		hpwl, err := f.graph.Analyze(cfgH, nil)
		if err != nil {
			b.Fatal(err)
		}
		rt, err := route.Route(f.plc.Chip, f.nl, f.flw.Lib, route.Options{CapPerUMFF: flow.CWirePerUMFF, ViaCapFF: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		cfgR := f.cfg
		cfgR.WireLoads = rt.Loads()
		routed, err := f.graph.Analyze(cfgR, nil)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func() {
			tb := report.NewTable("extension: wire-load models ("+f.nl.Name+")",
				"model", "WNS(ps)", "total wirelength(µm)", "vias")
			tb.AddF(1, "flat per-fanout", flat.WNS, "", "")
			tb.AddF(1, "HPWL estimate", hpwl.WNS, "", "")
			tb.AddF(1, "routed (L-chains)", routed.WNS,
				fmt.Sprintf("%.0f", float64(rt.TotalLengthNM)/1000), fmt.Sprint(rt.TotalVias))
			tb.Fprint(stdout)
		})
	}
}
