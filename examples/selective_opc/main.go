// selective_opc demonstrates the paper's DFM feedback loop: pass design
// intent (the tagged critical gates) to the OPC side and spend aggressive
// model-based correction only where timing needs it, leaving the rest of
// the chip uncorrected. The sweep shows how CD control on critical gates
// and the worst-case slack converge to the full-OPC result while touching
// only a handful of windows — and, with the pattern cache enabled, how the
// sweep's repeated and overlapping extractions collapse into cache hits.
//
//	go run ./examples/selective_opc
package main

import (
	"fmt"
	"log"
	"os"

	"postopc/internal/flow"
	"postopc/internal/netlist"
	"postopc/internal/pdk"
	"postopc/internal/place"
	"postopc/internal/report"
	"postopc/internal/sta"
)

func main() {
	kit := pdk.N90()
	f, err := flow.New(kit, flow.Config{Fast: true})
	if err != nil {
		log.Fatal(err)
	}
	f.EnableCache(0)
	design := netlist.RippleCarryAdder(6)
	pl, err := f.Place(design, place.Options{})
	if err != nil {
		log.Fatal(err)
	}
	g, err := f.BuildGraph(design)
	if err != nil {
		log.Fatal(err)
	}
	// Tight clock: 3% over the drawn critical path.
	probe, err := g.Analyze(sta.DefaultConfig(100000), nil)
	if err != nil {
		log.Fatal(err)
	}
	cfg := sta.DefaultConfig(1.03 * (100000 - probe.WNS))
	cfg.KPaths = 10
	drawn, err := g.Analyze(cfg, nil)
	if err != nil {
		log.Fatal(err)
	}

	sweep, err := f.SelectiveSweep(pl.Chip, g, drawn, cfg, []int{0, 1, 2, 4, 8})
	if err != nil {
		log.Fatal(err)
	}

	tb := report.NewTable("selective OPC on "+design.Name+
		fmt.Sprintf(" (%d gates total)", sweep.GatesTotal),
		"paths tagged", "gates OPC'd", "mean |CD-90| on crit (nm)", "WNS(ps)", "ΔWNS vs full OPC (ps)")
	for _, st := range sweep.Steps {
		tb.AddF(2, st.K, len(st.Tagged), st.MeanAbsCDErrNM, st.WNS, st.DeltaWNS)
	}
	tb.AddF(2, "all", sweep.GatesTotal, sweep.FullMeanAbsCDErrNM, sweep.FullWNS, 0.0)
	tb.Fprint(os.Stdout)

	flow.CacheStatsTable(f.CacheStats()).Fprint(os.Stdout)
}
