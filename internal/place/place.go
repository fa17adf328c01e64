// Package place produces a row-based standard-cell placement of a netlist,
// yielding the full-chip layout the post-OPC flow simulates. The placer is
// deliberately simple — connectivity-ordered row filling with fill-cell
// padding — but produces legal, abutted, DRC-plausible rows with the
// realistic poly-density context the litho simulation needs.
package place

import (
	"fmt"
	"math"
	"sort"

	"postopc/internal/geom"
	"postopc/internal/layout"
	"postopc/internal/netlist"
	"postopc/internal/stdcell"
)

// utilization is the target row fill fraction before padding; the rest is
// fill cells, which also give the row a realistic sprinkling of dummy poly.
const utilization = 0.85

// Options control the placer.
type Options struct {
	// RowWidthNM fixes the row width; 0 selects a near-square die.
	RowWidthNM geom.Coord
}

// Result is a completed placement.
type Result struct {
	// Chip is the placed layout; instance names equal netlist gate names.
	Chip *layout.Chip
	// Rows is the number of placement rows.
	Rows int
	// FillCount is the number of fill cells inserted.
	FillCount int
}

// Place arranges every gate of n into rows.
func Place(n *netlist.Netlist, lib *stdcell.Library, opt Options) (*Result, error) {
	conns, err := n.Connectivity(lib)
	if err != nil {
		return nil, err
	}
	order := levelOrder(n, conns)

	// Total placed width decides the row budget.
	var totalW geom.Coord
	cells := make([]*stdcell.Info, len(n.Gates))
	for i, g := range n.Gates {
		info, err := lib.Get(g.Cell)
		if err != nil {
			return nil, err
		}
		cells[i] = info
		totalW += info.Layout.Box.W()
	}
	rowH := lib.PDK.Rules.CellHeightNM
	rowW := opt.RowWidthNM
	if rowW <= 0 {
		// Near-square die at the target utilization.
		usable := float64(totalW) / utilization
		rows := int(math.Round(math.Sqrt(usable / float64(rowH))))
		if rows < 1 {
			rows = 1
		}
		rowW = geom.Coord(math.Ceil(usable / float64(rows)))
	}
	site := lib.PDK.Rules.SiteWidthNM
	rowW = (rowW + site - 1) / site * site

	fill, err := lib.Get("FILL_X1")
	if err != nil {
		return nil, err
	}
	fillW := fill.Layout.Box.W()

	chip := &layout.Chip{Name: n.Name}
	res := &Result{Chip: chip}
	var x, y geom.Coord
	row := 0
	orient := func() layout.Orient {
		if row%2 == 1 {
			return layout.MX
		}
		return layout.R0
	}
	padRow := func(upto geom.Coord) {
		for x+fillW <= upto {
			chip.AddInstance(fmt.Sprintf("fill%d", res.FillCount), fill.Layout, geom.Pt(x, y), orient())
			res.FillCount++
			x += fillW
		}
	}
	budget := geom.Coord(float64(rowW) * utilization)
	for _, gi := range order {
		w := cells[gi].Layout.Box.W()
		if x+w > rowW || (x > budget && x+w > budget) {
			padRow(rowW)
			row++
			x, y = 0, geom.Coord(row)*rowH
		}
		chip.AddInstance(n.Gates[gi].Name, cells[gi].Layout, geom.Pt(x, y), orient())
		x += w
	}
	padRow(rowW)
	res.Rows = row + 1
	chip.BuildIndex()
	return res, nil
}

// levelOrder orders gates by topological level from the primary inputs so
// that logically adjacent gates place near each other; ties break by gate
// index for determinism.
func levelOrder(n *netlist.Netlist, conns map[string]*netlist.Conn) []int {
	level := make([]int, len(n.Gates))
	for i := range level {
		level[i] = -1
	}
	// Net levels seed from primary inputs.
	netLevel := map[string]int{}
	for _, in := range n.Inputs {
		netLevel[in] = 0
	}
	// Iterate to a fixed point (the netlists are DAGs of modest depth;
	// sequential cells break the recursion by treating Q as level 0).
	changed := true
	for pass := 0; changed && pass < len(n.Gates)+2; pass++ {
		changed = false
		for gi, g := range n.Gates {
			lvl := 0
			ready := true
			for pin, net := range g.Conn {
				c := conns[net]
				if c != nil && c.Driver.Gate == gi && c.Driver.Pin == pin {
					continue // own output
				}
				nl, ok := netLevel[net]
				if !ok {
					ready = false
					break
				}
				if nl+1 > lvl {
					lvl = nl + 1
				}
			}
			if !ready || lvl == level[gi] {
				continue
			}
			if level[gi] == -1 || lvl > level[gi] {
				level[gi] = lvl
				// Publish the output net level.
				for pin, net := range g.Conn {
					c := conns[net]
					if c != nil && c.Driver.Gate == gi && c.Driver.Pin == pin {
						netLevel[net] = lvl
					}
				}
				changed = true
			}
		}
	}
	order := make([]int, len(n.Gates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if level[a] != level[b] {
			return level[a] < level[b]
		}
		return a < b
	})
	return order
}
