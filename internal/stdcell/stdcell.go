// Package stdcell generates the synthetic standard-cell library for the N90
// kit: complete Manhattan layouts (wells, diffusion, poly gates, contacts,
// metal1) plus the pin/function metadata the netlist and timing layers use.
//
// The layouts are what give the post-OPC flow a realistic optical context:
// gate poly sits at production pitch between neighbour gates, power rails
// and metal cross above, and cell abutment creates the dense/iso variety
// that drives OPC residuals.
package stdcell

import (
	"fmt"
	"sort"

	"postopc/internal/geom"
	"postopc/internal/layout"
	"postopc/internal/pdk"
)

// Kind classifies a cell's timing role.
type Kind uint8

const (
	// Comb cells propagate input-to-output arcs.
	Comb Kind = iota
	// Seq cells are flip-flops: timing paths end at D and start at Q.
	Seq
	// Fill cells have no pins.
	Fill
)

// Unate describes how output transitions relate to input transitions.
type Unate uint8

const (
	// Inverting: a rising input causes a falling output (INV, NAND, NOR,
	// AOI, OAI).
	Inverting Unate = iota
	// NonInverting: transitions propagate with the same sense (BUF).
	NonInverting
	// NonUnate: either input transition can cause either output
	// transition (XOR, XNOR).
	NonUnate
)

// Info is one library cell: layout plus interface metadata.
type Info struct {
	// Name is the cell name, e.g. "NAND2_X1".
	Name string
	// Layout is the generated geometry.
	Layout *layout.Cell
	// Inputs are the input pin names in canonical order.
	Inputs []string
	// Output is the output pin name ("" for fill).
	Output string
	// Kind is the timing role.
	Kind Kind
	// DriveX is the drive-strength multiplier (1, 2, 4...).
	DriveX int
	// StackedN and StackedP are the worst-case series-stack depths of the
	// pull-down (NMOS) and pull-up (PMOS) networks; they derate the
	// corresponding drive in the timing model (NAND2: N=2 P=1; NOR2: N=1
	// P=2).
	StackedN, StackedP int
	// Unate is the arc sense used by STA's rise/fall propagation.
	Unate Unate
}

// Library is a generated cell library.
type Library struct {
	// PDK is the kit the cells were generated for.
	PDK *pdk.PDK
	// Cells maps cell name to its Info.
	Cells map[string]*Info
}

// archetype describes how to synthesize one logic family.
type archetype struct {
	base       string
	inputs     []string
	nGates     int // poly gate strips (>= len(inputs); extras are internal)
	kind       Kind
	stackN     int
	stackP     int
	unate      Unate
	wnX1       geom.Coord // X1 NMOS width
	wpX1       geom.Coord // X1 PMOS width
	pitchDelta geom.Coord // gate pitch offset from the contacted minimum
	drives     []int
}

// NewLibrary generates the full library for the kit.
func NewLibrary(p *pdk.PDK) (*Library, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	lib := &Library{PDK: p, Cells: map[string]*Info{}}
	arch := []archetype{
		{"INV", []string{"A"}, 1, Comb, 1, 1, Inverting, 520, 780, 200, []int{1, 2, 4, 8}},
		{"BUF", []string{"A"}, 2, Comb, 1, 1, NonInverting, 520, 780, 120, []int{1, 2, 4}},
		{"NAND2", []string{"A", "B"}, 2, Comb, 2, 1, Inverting, 640, 780, 0, []int{1, 2, 4}},
		{"NAND3", []string{"A", "B", "C"}, 3, Comb, 3, 1, Inverting, 760, 780, 0, []int{1, 2}},
		{"NOR2", []string{"A", "B"}, 2, Comb, 1, 2, Inverting, 520, 1040, 100, []int{1, 2}},
		{"NOR3", []string{"A", "B", "C"}, 3, Comb, 1, 3, Inverting, 520, 1200, 60, []int{1}},
		{"AOI21", []string{"A1", "A2", "B"}, 3, Comb, 2, 2, Inverting, 640, 1040, 40, []int{1, 2}},
		{"OAI21", []string{"A1", "A2", "B"}, 3, Comb, 2, 2, Inverting, 640, 1040, 20, []int{1, 2}},
		{"XOR2", []string{"A", "B"}, 4, Comb, 2, 2, NonUnate, 640, 900, 0, []int{1, 2}},
		{"XNOR2", []string{"A", "B"}, 4, Comb, 2, 2, NonUnate, 640, 900, 80, []int{1}},
		{"DFF", []string{"D", "CK"}, 6, Seq, 2, 2, NonInverting, 640, 900, 20, []int{1, 2}},
		{"FILL", nil, 1, Fill, 1, 1, Inverting, 0, 0, 0, []int{1}},
	}
	for _, a := range arch {
		for _, d := range a.drives {
			info, err := synthesize(p, a, d)
			if err != nil {
				return nil, fmt.Errorf("stdcell: %s_X%d: %w", a.base, d, err)
			}
			lib.Cells[info.Name] = info
		}
	}
	return lib, nil
}

// Get returns a cell by name.
func (l *Library) Get(name string) (*Info, error) {
	c, ok := l.Cells[name]
	if !ok {
		return nil, fmt.Errorf("stdcell: unknown cell %q", name)
	}
	return c, nil
}

// Names returns all cell names, sorted.
func (l *Library) Names() []string {
	out := make([]string, 0, len(l.Cells))
	for n := range l.Cells {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// synthesize builds the layout of one cell variant.
func synthesize(p *pdk.PDK, a archetype, drive int) (*Info, error) {
	r := p.Rules
	name := fmt.Sprintf("%s_X%d", a.base, drive)
	c := &layout.Cell{Name: name}
	// Per-archetype gate pitch: real libraries space their gates by what
	// the cell's routing needs, not at one uniform pitch. This is the
	// context diversity that makes uncorrected proximity effects (and
	// residual OPC errors) differ from cell to cell.
	pitch := r.PolyPitchNM + a.pitchDelta

	wn := a.wnX1 * geom.Coord(drive)
	wp := a.wpX1 * geom.Coord(drive)
	height := r.CellHeightNM
	// Tall devices are folded into parallel fingers, like real high-drive
	// cells: each input then controls `fingers` adjacent poly strips. The
	// vertical budget is the cell height minus rails, diffusion margins
	// and a minimum N-to-P separation.
	budget := height - 2*r.RailWidthNM - 2*180 - 400
	fingers := 1
	for (wn+wp)/geom.Coord(fingers) > budget {
		fingers++
	}
	wn /= geom.Coord(fingers)
	wp /= geom.Coord(fingers)
	nStrips := a.nGates * fingers

	// Horizontal extent: strips at poly pitch with a full pitch of margin,
	// rounded up to placement sites.
	coreW := geom.Coord(nStrips+1) * pitch
	width := ((coreW + r.SiteWidthNM - 1) / r.SiteWidthNM) * r.SiteWidthNM
	c.Box = geom.R(0, 0, width, height)

	// Power rails (metal1) at bottom (VSS) and top (VDD).
	c.AddRect(layout.LayerMetal1, geom.R(0, 0, width, r.RailWidthNM))
	c.AddRect(layout.LayerMetal1, geom.R(0, height-r.RailWidthNM, width, height))

	if a.kind == Fill {
		// Fill cells carry a dummy poly strip for pattern-density
		// uniformity and nothing else.
		cx := width / 2
		c.AddRect(layout.LayerPoly, geom.R(cx-r.PolyWidthNM/2, r.RailWidthNM+100,
			cx+r.PolyWidthNM/2, height-r.RailWidthNM-100))
		c.Box = geom.R(0, 0, width, height)
		return &Info{Name: name, Layout: c, Kind: Fill, DriveX: drive, StackedN: 1, StackedP: 1}, nil
	}

	// Diffusions: NMOS strip near VSS, PMOS strip near VDD, spanning the
	// source/drain contact columns on either side of the poly strips.
	first := (width - geom.Coord(nStrips-1)*pitch) / 2
	diffMargin := geom.Coord(180) // rail to diffusion
	diffX0 := first - pitch/2 - r.ContactNM
	diffX1 := first + geom.Coord(nStrips-1)*pitch + pitch/2 + r.ContactNM
	// Keep half the diffusion space to the cell edge so abutted neighbours
	// stay legal (another violation class the DRC engine caught).
	if edge := r.DiffWidthNM / 2; diffX0 < edge {
		diffX0 = edge
	}
	if edge := width - r.DiffWidthNM/2; diffX1 > edge {
		diffX1 = edge
	}
	ndiff := geom.R(diffX0, r.RailWidthNM+diffMargin, diffX1, r.RailWidthNM+diffMargin+wn)
	pdiff := geom.R(diffX0, height-r.RailWidthNM-diffMargin-wp, diffX1, height-r.RailWidthNM-diffMargin)
	c.AddRect(layout.LayerDiffusion, ndiff)
	c.AddRect(layout.LayerDiffusion, pdiff)
	// N-well over the PMOS half.
	c.AddRect(layout.LayerNWell, geom.R(0, height/2, width, height))

	// Poly gate strips, one per transistor finger, at pitch, centered.
	l := r.GateLengthNM
	polyY0 := ndiff.Y0 - r.PolyExtNM
	polyY1 := pdiff.Y1 + r.PolyExtNM
	for si := 0; si < nStrips; si++ {
		cx := first + geom.Coord(si)*pitch
		strip := geom.R(cx-l/2, polyY0, cx+l/2, polyY1)
		c.AddRect(layout.LayerPoly, strip)
		// Poly landing pad (wider poly) below the NMOS diffusion for the
		// input contact — classic T-shaped gate. The pad width keeps
		// pad-to-pad space at the contacted pitch ≥ 200nm: wide pads at
		// the minimum poly space print bridged at the underdose corner of
		// the window (the full-chip ORC bench demonstrates this class of
		// failure), so the cells honour the litho-aware rule instead.
		padHalf := (pitch - 200) / 2
		if padHalf > 90 {
			padHalf = 90
		}
		// The pad abuts the strip bottom so the T is one connected shape
		// (a detached pad leaves an isolated strip line-end whose pullback
		// opens the connection — a hotspot class the ORC bench caught).
		// Its bottom stays half the poly space away from the cell edge so
		// MX-abutted rows keep legal pad-to-pad spacing (a violation class
		// the DRC engine caught).
		padY0 := r.PolySpaceNM / 2
		pad := geom.R(cx-padHalf, padY0, cx+padHalf, polyY0)
		c.AddRect(layout.LayerPoly, pad)
		c.AddRect(layout.LayerContact, squareAt(pad.Center(), r.ContactNM))

		// Gate sites: the channel rectangles where the strip crosses the
		// diffusions. Adjacent fingers share a pin; internal strips
		// (beyond the declared inputs) map to the last input pin (e.g. DFF
		// internal stages clocked by CK).
		gi := si / fingers
		pin := a.inputs[min(gi, len(a.inputs)-1)]
		c.Gates = append(c.Gates,
			layout.GateSite{
				Name: fmt.Sprintf("MN%d_%d", gi, si%fingers), Pin: pin, Kind: layout.NMOS,
				Channel: geom.R(cx-l/2, ndiff.Y0, cx+l/2, ndiff.Y1),
			},
			layout.GateSite{
				Name: fmt.Sprintf("MP%d_%d", gi, si%fingers), Pin: pin, Kind: layout.PMOS,
				Channel: geom.R(cx-l/2, pdiff.Y0, cx+l/2, pdiff.Y1),
			},
		)
	}

	// Source/drain contacts between and outside the gates, on both
	// diffusions, plus stub M1.
	for si := 0; si <= nStrips; si++ {
		cx := first + geom.Coord(si)*pitch - pitch/2
		for _, diff := range []geom.Rect{ndiff, pdiff} {
			ccy := diff.Center().Y
			ct := squareAt(geom.Pt(cx, ccy), r.ContactNM)
			c.AddRect(layout.LayerContact, ct)
			c.AddRect(layout.LayerMetal1, ct.Expand(40))
		}
	}

	// Output metal1 strap on the right side connecting the stacks.
	outX := width - pitch/2
	c.AddRect(layout.LayerMetal1, geom.R(outX-r.Metal1WidthNM/2, ndiff.Center().Y,
		outX+r.Metal1WidthNM/2, pdiff.Center().Y))

	c.Box = geom.R(0, 0, width, height) // pads/straps stay inside

	return &Info{
		Name:     name,
		Layout:   c,
		Inputs:   append([]string(nil), a.inputs...),
		Output:   outputPin(a.base),
		Kind:     a.kind,
		DriveX:   drive,
		StackedN: a.stackN,
		StackedP: a.stackP,
		Unate:    a.unate,
	}, nil
}

func outputPin(base string) string {
	if base == "DFF" {
		return "Q"
	}
	return "Y"
}

func squareAt(center geom.Point, size geom.Coord) geom.Rect {
	return geom.R(center.X-size/2, center.Y-size/2, center.X+size/2, center.Y+size/2)
}
