// Package route is a lightweight global router: every net is routed as a
// chain of L-shaped (HVH) connections over the placement, horizontal wire
// on metal2 and vertical wire on metal3-equivalent tracks. It upgrades the
// flow's wire model from HPWL estimates to actual routed lengths and
// shapes — the "placed and routed" substrate the paper's abstract
// describes — while deliberately skipping congestion (the synthetic
// designs are small and the timing flow only consumes lengths).
package route

import (
	"fmt"
	"sort"

	"postopc/internal/geom"
	"postopc/internal/layout"
	"postopc/internal/netlist"
	"postopc/internal/stdcell"
)

// Options configure the router.
type Options struct {
	// CapPerUMFF converts routed length to capacitance in Loads().
	CapPerUMFF float64
	// ViaCapFF is added per via in Loads().
	ViaCapFF float64
}

// Net is one routed net.
type Net struct {
	// Name matches the netlist net.
	Name string
	// LengthNM is the total routed wirelength.
	LengthNM geom.Coord
	// Vias counts layer changes.
	Vias int
	// HSegs and VSegs are the wire shapes (horizontal on M2, vertical on
	// the next layer up).
	HSegs, VSegs []geom.Rect
}

// Result is a completed routing.
type Result struct {
	// Nets by name (single-pin nets are present with zero length).
	Nets map[string]*Net
	// TotalLengthNM sums all nets.
	TotalLengthNM geom.Coord
	// TotalVias counts all layer changes.
	TotalVias int

	opt Options
}

// Route connects every net of the placed design with wires of the kit's
// metal-1 width.
func Route(chip *layout.Chip, n *netlist.Netlist, lib *stdcell.Library, opt Options) (*Result, error) {
	if opt.CapPerUMFF <= 0 {
		opt.CapPerUMFF = 0.20
	}
	conns, err := n.Connectivity(lib)
	if err != nil {
		return nil, err
	}
	centers := make([]geom.Point, len(n.Gates))
	for gi, g := range n.Gates {
		inst := chip.FindInstance(g.Name)
		if inst == nil {
			return nil, fmt.Errorf("route: gate %s not placed", g.Name)
		}
		centers[gi] = inst.Bounds().Center()
	}
	res := &Result{Nets: map[string]*Net{}, opt: opt}
	names := make([]string, 0, len(conns))
	for net := range conns {
		names = append(names, net)
	}
	sort.Strings(names)
	for _, netName := range names {
		c := conns[netName]
		var pins []geom.Point
		if c.Driver.Gate >= 0 {
			pins = append(pins, centers[c.Driver.Gate])
		}
		for _, s := range c.Sinks {
			if s.Gate >= 0 {
				pins = append(pins, centers[s.Gate])
			}
		}
		res.Nets[netName] = routeNet(netName, pins, lib.PDK.Rules.Metal1WidthNM)
		res.TotalLengthNM += res.Nets[netName].LengthNM
		res.TotalVias += res.Nets[netName].Vias
	}
	return res, nil
}

// routeNet chains the pins in x order with L-shaped connections.
func routeNet(name string, pins []geom.Point, w geom.Coord) *Net {
	out := &Net{Name: name}
	if len(pins) < 2 {
		return out
	}
	order := append([]geom.Point(nil), pins...)
	sort.Slice(order, func(i, j int) bool {
		if order[i].X != order[j].X {
			return order[i].X < order[j].X
		}
		return order[i].Y < order[j].Y
	})
	half := w / 2
	for i := 0; i+1 < len(order); i++ {
		a, b := order[i], order[i+1]
		dx := absC(b.X - a.X)
		dy := absC(b.Y - a.Y)
		out.LengthNM += dx + dy
		if dx > 0 {
			out.HSegs = append(out.HSegs, geom.R(min(a.X, b.X)-half, a.Y-half, max(a.X, b.X)+half, a.Y+half))
		}
		if dy > 0 {
			out.VSegs = append(out.VSegs, geom.R(b.X-half, min(a.Y, b.Y)-half, b.X+half, max(a.Y, b.Y)+half))
		}
		if dx > 0 && dy > 0 {
			out.Vias++ // the L corner
		}
	}
	// Pin drops: one via per pin down to the cell.
	out.Vias += len(pins)
	return out
}

// Loads converts routed lengths (plus via caps) to per-net capacitance for
// sta.Config.WireLoads.
func (r *Result) Loads() map[string]float64 {
	out := make(map[string]float64, len(r.Nets))
	for name, nt := range r.Nets {
		out[name] = float64(nt.LengthNM)/1000*r.opt.CapPerUMFF + float64(nt.Vias)*r.opt.ViaCapFF
	}
	return out
}

// WirelengthHistogram bins net lengths for reporting.
func (r *Result) WirelengthHistogram(binNM geom.Coord, bins int) []int {
	counts := make([]int, bins)
	for _, nt := range r.Nets {
		k := int(nt.LengthNM / binNM)
		if k >= bins {
			k = bins - 1
		}
		counts[k]++
	}
	return counts
}

func absC(v geom.Coord) geom.Coord {
	if v < 0 {
		return -v
	}
	return v
}
