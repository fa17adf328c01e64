// ring_oscillator builds the classic silicon process monitor: a ring of
// inverters whose oscillation frequency tracks the printed gate CD. The
// stage delays are evaluated from post-OPC extracted equivalent lengths at
// each process-window corner, turning the litho excursions into the
// frequency shifts a fab would measure on real silicon — and showing how
// far the drawn-CD prediction is from the "silicon".
//
//	go run ./examples/ring_oscillator
package main

import (
	"fmt"
	"log"
	"os"

	"postopc/internal/flow"
	"postopc/internal/litho"
	"postopc/internal/netlist"
	"postopc/internal/pdk"
	"postopc/internal/place"
	"postopc/internal/report"
	"postopc/internal/timinglib"
)

const stages = 13 // odd, as a real RO must be

func main() {
	kit := pdk.N90()
	f, err := flow.New(kit, flow.Config{Fast: true})
	if err != nil {
		log.Fatal(err)
	}
	// The ring is placed as a chain (placement only needs the instances;
	// the feedback connection doesn't change any gate's layout context).
	nl := netlist.InverterChain(stages)
	pl, err := f.Place(nl, place.Options{})
	if err != nil {
		log.Fatal(err)
	}

	corners := []litho.Corner{
		litho.Nominal,
		{DefocusNM: 60, Dose: 1},
		{DefocusNM: kit.Window.DefocusNM, Dose: 1},
		{DefocusNM: 0, Dose: 1 - kit.Window.DoseFrac},
		{DefocusNM: 0, Dose: 1 + kit.Window.DoseFrac},
	}
	exts, err := f.ExtractGates(pl.Chip, nil, flow.ExtractOptions{
		Corners: corners, Mode: flow.OPCModel,
	})
	if err != nil {
		log.Fatal(err)
	}

	inv := f.Lib.Cells["INV_X1"]
	// Each stage drives the next stage's input plus local wire.
	evDrawn, err := f.TL.Evaluate(inv, nil)
	if err != nil {
		log.Fatal(err)
	}
	loadFF := f.TL.Cin(inv)["A"] + kit.Device.CWireFF

	// stageDelay averages rise and fall propagation through one inverter.
	stageDelay := func(ev timinglib.Eval, slew float64) float64 {
		dr, _ := f.TL.ArcDelay(ev, true, loadFF, slew)
		df, _ := f.TL.ArcDelay(ev, false, loadFF, slew)
		return (dr + df) / 2
	}
	// Self-consistent slew: iterate the output slew to its fixed point.
	settleSlew := func(ev timinglib.Eval) float64 {
		slew := 20.0
		for i := 0; i < 8; i++ {
			_, s := f.TL.ArcDelay(ev, true, loadFF, slew)
			slew = s
		}
		return slew
	}

	freqMHz := func(perStagePS float64) float64 {
		return 1e6 / (2 * stages * perStagePS)
	}

	tb := report.NewTable(fmt.Sprintf("%d-stage ring oscillator through the process window", stages),
		"condition", "mean delayEL(nm)", "stage delay(ps)", "f_RO(MHz)", "vs drawn")
	drawnDelay := stageDelay(evDrawn, settleSlew(evDrawn))
	tb.AddF(2, "drawn CD", 90.0, drawnDelay, freqMHz(drawnDelay), "")

	for ci, c := range corners {
		// Average the ring's per-gate evaluations at this corner.
		var total float64
		var meanEL float64
		var slewRef float64
		for _, g := range nl.Gates {
			ann, err := flow.AnnotationsAt(map[string]*flow.GateExtraction{g.Name: exts[g.Name]}, ci)
			if err != nil {
				log.Fatal(err)
			}
			ev, err := f.TL.Evaluate(inv, ann[g.Name])
			if err != nil {
				log.Fatal(err)
			}
			if slewRef == 0 {
				slewRef = settleSlew(ev)
			}
			total += stageDelay(ev, slewRef)
			meanEL += exts[g.Name].Sites[0].PerCorner[ci].DelayEL
		}
		per := total / float64(len(nl.Gates))
		meanEL /= float64(len(nl.Gates))
		tb.AddF(2, c.String(), meanEL, per, freqMHz(per),
			fmt.Sprintf("%+.1f%%", 100*(freqMHz(per)-freqMHz(drawnDelay))/freqMHz(drawnDelay)))
	}
	tb.Fprint(os.Stdout)
	fmt.Println("\nthe RO speeds up off-focus (shorter printed gates) while leakage climbs —")
	fmt.Println("the classic silicon signature that drawn-CD timing cannot predict.")
}
