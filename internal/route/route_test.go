package route

import (
	"testing"

	"postopc/internal/geom"
	"postopc/internal/netlist"
	"postopc/internal/pdk"
	"postopc/internal/place"
	"postopc/internal/stdcell"
)

var testLib *stdcell.Library

func lib(t *testing.T) *stdcell.Library {
	t.Helper()
	if testLib == nil {
		l, err := stdcell.NewLibrary(pdk.N90())
		if err != nil {
			t.Fatal(err)
		}
		testLib = l
	}
	return testLib
}

func TestRouteNetTwoPins(t *testing.T) {
	nt := routeNet("n", []geom.Point{geom.Pt(0, 0), geom.Pt(1000, 500)}, 130)
	if nt.LengthNM != 1500 {
		t.Fatalf("L-route length = %d", nt.LengthNM)
	}
	if len(nt.HSegs) != 1 || len(nt.VSegs) != 1 {
		t.Fatalf("segments = %d/%d", len(nt.HSegs), len(nt.VSegs))
	}
	// Corner via + 2 pin vias.
	if nt.Vias != 3 {
		t.Fatalf("vias = %d", nt.Vias)
	}
	// Wire shapes span the route with the wire width.
	if nt.HSegs[0].H() != 130 || nt.VSegs[0].W() != 130 {
		t.Fatal("wire width wrong")
	}
}

func TestRouteNetDegenerate(t *testing.T) {
	if nt := routeNet("n", nil, 130); nt.LengthNM != 0 || nt.Vias != 0 {
		t.Fatal("empty net")
	}
	if nt := routeNet("n", []geom.Point{geom.Pt(5, 5)}, 130); nt.LengthNM != 0 {
		t.Fatal("single-pin net")
	}
	// Aligned pins: straight route, no corner via.
	nt := routeNet("n", []geom.Point{geom.Pt(0, 100), geom.Pt(900, 100)}, 130)
	if nt.LengthNM != 900 || len(nt.VSegs) != 0 || nt.Vias != 2 {
		t.Fatalf("straight route: %+v", nt)
	}
}

func TestRouteChainCoversHPWL(t *testing.T) {
	// Chained L-routes are never shorter than the half perimeter.
	pins := []geom.Point{{X: 0, Y: 0}, {X: 500, Y: 900}, {X: 1200, Y: 100}, {X: 300, Y: 700}}
	nt := routeNet("n", pins, 130)
	bb := geom.BBoxOf(pins)
	if nt.LengthNM < bb.W()+bb.H() {
		t.Fatalf("routed %d below HPWL %d", nt.LengthNM, bb.W()+bb.H())
	}
}

func TestRoutePlacedDesign(t *testing.T) {
	n := netlist.RippleCarryAdder(4)
	pl, err := place.Place(n, lib(t), place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Route(pl.Chip, n, lib(t), Options{CapPerUMFF: 0.2, ViaCapFF: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	conns, _ := n.Connectivity(lib(t))
	if len(res.Nets) != len(conns) {
		t.Fatalf("routed %d of %d nets", len(res.Nets), len(conns))
	}
	if res.TotalLengthNM <= 0 || res.TotalVias <= 0 {
		t.Fatalf("totals: %d nm, %d vias", res.TotalLengthNM, res.TotalVias)
	}
	// Every wire is drawn at the kit's metal-1 width.
	width := lib(t).PDK.Rules.Metal1WidthNM
	segs := 0
	for name, nt := range res.Nets {
		for _, r := range append(append([]geom.Rect(nil), nt.HSegs...), nt.VSegs...) {
			if min(r.W(), r.H()) != width {
				t.Fatalf("net %s: segment %v is not %d nm wide", name, r, width)
			}
			segs++
		}
	}
	if segs == 0 {
		t.Fatal("no wire segments routed")
	}
	// Loads: every net present, non-negative, multi-pin nets positive.
	loads := res.Loads()
	for name, nt := range res.Nets {
		l := loads[name]
		if l < 0 {
			t.Fatalf("negative load on %s", name)
		}
		if nt.LengthNM > 0 && l <= 0 {
			t.Fatalf("routed net %s has no load", name)
		}
	}
	// Histogram covers all nets.
	h := res.WirelengthHistogram(2000, 10)
	total := 0
	for _, c := range h {
		total += c
	}
	if total != len(res.Nets) {
		t.Fatalf("histogram total %d", total)
	}
	// Determinism.
	res2, err := Route(pl.Chip, n, lib(t), Options{CapPerUMFF: 0.2, ViaCapFF: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalLengthNM != res2.TotalLengthNM || res.TotalVias != res2.TotalVias {
		t.Fatal("routing not deterministic")
	}
}

func TestRouteUnplacedGate(t *testing.T) {
	n := netlist.InverterChain(3)
	pl, err := place.Place(netlist.InverterChain(2), lib(t), place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Route(pl.Chip, n, lib(t), Options{}); err == nil {
		t.Fatal("unplaced gate accepted")
	}
}
