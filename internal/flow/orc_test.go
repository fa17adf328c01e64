package flow

import (
	"testing"

	"postopc/internal/litho"
	"postopc/internal/netlist"
	"postopc/internal/place"
)

func TestVerifyChipCleanAtNominal(t *testing.T) {
	f := fastFlow(t)
	pl, err := f.Place(netlist.InverterChain(4), place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.VerifyChip(pl.Chip, ORCOptions{
		Corners: []litho.Corner{litho.Nominal},
		Mode:    OPCModel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tiles == 0 || rep.ScannedCDs == 0 {
		t.Fatalf("nothing verified: %+v", rep)
	}
	// A small OPC'd chain at nominal must print without pinches or
	// bridges.
	if len(rep.Hotspots) != 0 {
		t.Fatalf("unexpected hotspots at nominal: %v", rep.Hotspots[:min(3, len(rep.Hotspots))])
	}
}

func TestVerifyChipCatchesOverdose(t *testing.T) {
	f := fastFlow(t)
	pl, err := f.Place(netlist.InverterChain(4), place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A absurd overdose washes lines away: the verifier must report
	// pinches.
	rep, err := f.VerifyChip(pl.Chip, ORCOptions{
		Corners: []litho.Corner{{DefocusNM: 0, Dose: 1.8}},
		Mode:    OPCNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByKind[Pinch] == 0 {
		t.Fatal("overdose produced no pinch hotspots")
	}
	// Hotspots carry locations inside the die and kind strings.
	h := rep.Hotspots[0]
	if !pl.Chip.Die.Contains(h.At) {
		t.Fatalf("hotspot outside die: %v", h)
	}
	if h.Kind.String() != "pinch" {
		t.Fatalf("kind = %s", h.Kind)
	}
}

func TestVerifyChipCatchesBridging(t *testing.T) {
	f := fastFlow(t)
	// NAND3 cells put poly landing pads at minimum space — the bridging
	// risk site. A massive underdose fattens everything until they merge.
	n := &netlist.Netlist{Name: "dense", Inputs: []string{"a", "b", "c"}}
	n.AddGate("g0", "NAND3_X1", map[string]string{"A": "a", "B": "b", "C": "c", "Y": "n1"})
	n.AddGate("g1", "NAND3_X1", map[string]string{"A": "n1", "B": "b", "C": "c", "Y": "n2"})
	n.Outputs = []string{"n2"}
	pl, err := f.Place(n, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.VerifyChip(pl.Chip, ORCOptions{
		Corners: []litho.Corner{{DefocusNM: 0, Dose: 0.38}},
		Mode:    OPCNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByKind[Bridge] == 0 {
		t.Fatal("underdose produced no bridge hotspots")
	}
}

func TestVerifyChipHotspotsSorted(t *testing.T) {
	f := fastFlow(t)
	pl, err := f.Place(netlist.InverterChain(3), place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.VerifyChip(pl.Chip, ORCOptions{
		Corners: []litho.Corner{{DefocusNM: 0, Dose: 1.8}},
		Mode:    OPCNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rep.Hotspots); i++ {
		a, b := rep.Hotspots[i-1], rep.Hotspots[i]
		if a.Kind > b.Kind || (a.Kind == b.Kind && a.CDNM > b.CDNM) {
			t.Fatalf("hotspots not sorted at %d: %v then %v", i, a, b)
		}
	}
}
