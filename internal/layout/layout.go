// Package layout is the mask-layout database: layers, shapes, cells,
// placed instances and full-chip assembly with windowed flattening. All
// drawn geometry is Manhattan rectangles; printed (simulated) geometry
// lives elsewhere as general polygons.
package layout

import (
	"fmt"
	"sort"

	"postopc/internal/geom"
)

// Layer identifies a mask layer.
type Layer uint8

// The mask layers used by the synthetic cell library. Only Diffusion and
// Poly participate in gate formation; the interconnect layers exist so the
// cell layouts are complete and the OPC context is realistic.
const (
	LayerNWell Layer = iota
	LayerDiffusion
	LayerPoly
	LayerContact
	LayerMetal1
	LayerVia1
	LayerMetal2
	NumLayers
)

var layerNames = [...]string{
	"nwell", "diffusion", "poly", "contact", "metal1", "via1", "metal2",
}

// String implements fmt.Stringer.
func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return fmt.Sprintf("layer%d", uint8(l))
}

// ParseLayer resolves a layer name.
func ParseLayer(s string) (Layer, error) {
	for i, n := range layerNames {
		if n == s {
			return Layer(i), nil
		}
	}
	return 0, fmt.Errorf("layout: unknown layer %q", s)
}

// Shape is one drawn rectangle on a layer.
type Shape struct {
	Layer Layer
	Rect  geom.Rect
}

// DeviceKind distinguishes transistor types.
type DeviceKind uint8

const (
	NMOS DeviceKind = iota
	PMOS
)

// String implements fmt.Stringer.
func (k DeviceKind) String() string {
	if k == NMOS {
		return "nmos"
	}
	return "pmos"
}

// GateSite is one transistor channel inside a cell: the rectangle where a
// poly gate crosses diffusion. The post-OPC flow measures the printed CD of
// exactly these rectangles.
type GateSite struct {
	// Name identifies the device within the cell (e.g. "MN0").
	Name string
	// Pin is the cell input pin driving this gate.
	Pin string
	// Kind is NMOS or PMOS.
	Kind DeviceKind
	// Channel is the drawn channel rectangle: width = drawn gate length L
	// (x extent, poly runs vertically), height = device width W.
	Channel geom.Rect
}

// L returns the drawn gate length in nm.
func (g GateSite) L() geom.Coord { return g.Channel.W() }

// W returns the drawn device width in nm.
func (g GateSite) W() geom.Coord { return g.Channel.H() }

// Cell is a reusable layout macro (standard cell).
type Cell struct {
	// Name is the library cell name (e.g. "NAND2_X1").
	Name string
	// Box is the placement bounding box (origin at (0,0)).
	Box geom.Rect
	// Shapes holds the drawn geometry in cell coordinates.
	Shapes []Shape
	// Gates lists the transistor channels in cell coordinates.
	Gates []GateSite
}

// ShapesOn returns the cell's rectangles on one layer.
func (c *Cell) ShapesOn(l Layer) []geom.Rect {
	var out []geom.Rect
	for _, s := range c.Shapes {
		if s.Layer == l {
			out = append(out, s.Rect)
		}
	}
	return out
}

// AddRect appends a rectangle to the cell.
func (c *Cell) AddRect(l Layer, r geom.Rect) {
	c.Shapes = append(c.Shapes, Shape{Layer: l, Rect: r})
	c.Box = c.Box.Union(r)
}

// Orient is a placement orientation. Standard-cell rows only need the
// identity and the vertical flip (alternate rows share power rails).
type Orient uint8

const (
	// R0 is the identity orientation.
	R0 Orient = iota
	// MX mirrors about the x-axis (flips y), the orientation of every
	// other standard-cell row.
	MX
)

// Apply transforms a cell-space rectangle into chip space for an instance
// with the given origin. For MX the cell is flipped about its own x-axis
// before translation, so a cell spanning [0,h] in y maps to [origin-h+...]:
// we flip within the cell box so placement origins stay at the lower-left.
func (o Orient) Apply(r geom.Rect, box geom.Rect, origin geom.Point) geom.Rect {
	if o == MX {
		// Flip inside the cell box: y -> (box.Y0 + box.Y1) - y.
		sum := box.Y0 + box.Y1
		r = geom.R(r.X0, sum-r.Y1, r.X1, sum-r.Y0)
	}
	return r.Translate(origin)
}

// Instance is a placed occurrence of a cell.
type Instance struct {
	// Name is the unique instance name (matches the netlist gate name).
	Name string
	// Cell is the master.
	Cell *Cell
	// Origin is the chip-space position of the cell's lower-left corner.
	Origin geom.Point
	// Orient is the placement orientation.
	Orient Orient
}

// Bounds returns the chip-space bounding box of the instance.
func (in *Instance) Bounds() geom.Rect {
	return in.Orient.Apply(in.Cell.Box, in.Cell.Box, in.Origin)
}

// TransformRect maps a cell-space rect of this instance into chip space.
func (in *Instance) TransformRect(r geom.Rect) geom.Rect {
	return in.Orient.Apply(r, in.Cell.Box, in.Origin)
}

// TransformRectAll maps a set of cell-space rects into chip space.
func (in *Instance) TransformRectAll(rs []geom.Rect) []geom.Rect {
	out := make([]geom.Rect, len(rs))
	for i, r := range rs {
		out[i] = in.TransformRect(r)
	}
	return out
}

// GateSites returns the instance's transistor channels in chip space, with
// names qualified by the instance name ("inst/MN0").
func (in *Instance) GateSites() []GateSite {
	out := make([]GateSite, len(in.Cell.Gates))
	for i, g := range in.Cell.Gates {
		out[i] = GateSite{
			Name:    in.Name + "/" + g.Name,
			Pin:     g.Pin,
			Kind:    g.Kind,
			Channel: in.TransformRect(g.Channel),
		}
	}
	return out
}

// Chip is a placed design.
type Chip struct {
	// Name is the design name.
	Name string
	// Die is the chip outline.
	Die geom.Rect
	// Instances holds every placed cell.
	Instances []Instance

	index *geom.Index[*Instance]
}

// AddInstance places a cell on the chip. The returned pointer is only valid
// until the next AddInstance call (the instance slice may reallocate).
func (ch *Chip) AddInstance(name string, cell *Cell, origin geom.Point, o Orient) *Instance {
	ch.Instances = append(ch.Instances, Instance{Name: name, Cell: cell, Origin: origin, Orient: o})
	in := &ch.Instances[len(ch.Instances)-1]
	ch.Die = ch.Die.Union(in.Bounds())
	ch.index = nil // invalidate
	return in
}

// maxIndexBins bounds the spatial index of one chip. Placed designs need a
// few hundred bins; the bound only coarsens the index of a die so large (a
// corrupt or hand-edited .plf) that its bins would not fit in memory.
// Coarser bins change what a query costs, never what it returns.
const maxIndexBins = 1 << 16

// BuildIndex (re)builds the spatial index; it is also built lazily by
// WindowShapes. Call it explicitly after bulk placement for determinism in
// benchmarks.
func (ch *Chip) BuildIndex() {
	cellPitch := ch.Die.W() / 32
	if cellPitch < 1000 {
		cellPitch = 1000
	}
	for {
		nx, ny := ch.Die.W()/cellPitch+1, ch.Die.H()/cellPitch+1
		if nx <= maxIndexBins && ny <= maxIndexBins && nx*ny <= maxIndexBins {
			break
		}
		cellPitch *= 2
	}
	idx := geom.NewIndex[*Instance](ch.Die, cellPitch)
	for i := range ch.Instances {
		in := &ch.Instances[i]
		idx.Insert(in.Bounds(), in)
	}
	ch.index = idx
}

// InstancesIn returns the instances whose bounds intersect the window,
// sorted by name for determinism.
func (ch *Chip) InstancesIn(w geom.Rect) []*Instance {
	if ch.index == nil {
		ch.BuildIndex()
	}
	out := ch.index.QueryAll(w)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WindowShapes flattens the chip geometry on one layer inside the window,
// clipped to it. This is what feeds per-gate litho simulation windows.
func (ch *Chip) WindowShapes(l Layer, w geom.Rect) []geom.Rect {
	var out []geom.Rect
	for _, in := range ch.InstancesIn(w) {
		for _, s := range in.Cell.Shapes {
			if s.Layer != l {
				continue
			}
			r := in.TransformRect(s.Rect).Intersect(w)
			if !r.Empty() {
				out = append(out, r)
			}
		}
	}
	return out
}

// AllGateSites returns every transistor channel on the chip.
func (ch *Chip) AllGateSites() []GateSite {
	var out []GateSite
	for i := range ch.Instances {
		out = append(out, ch.Instances[i].GateSites()...)
	}
	return out
}

// FindInstance returns the named instance, or nil.
func (ch *Chip) FindInstance(name string) *Instance {
	for i := range ch.Instances {
		if ch.Instances[i].Name == name {
			return &ch.Instances[i]
		}
	}
	return nil
}
