// Package timinglib turns standard-cell geometry plus the compact device
// model into the cell-level timing and leakage numbers STA consumes: input
// pin capacitances, effective drive resistances per transition, delay and
// output-slew evaluation, and per-cell leakage — all parameterized by the
// per-gate-site effective channel length, which is exactly the annotation
// interface the post-OPC flow uses.
//
// The delay model is an effective-current (CV/I) model with a linear
// input-slew term; NLDM-style lookup tables can be generated from it (see
// Table) for interoperability-flavoured workflows and for the table-vs-
// analytic ablation.
package timinglib

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"postopc/internal/device"
	"postopc/internal/layout"
	"postopc/internal/pdk"
	"postopc/internal/stdcell"
)

// Lengths is the per-gate-site effective-length annotation: DelayL drives
// the arc delays, LeakL the static power. Both in nm. RContactOhm
// optionally carries the extracted per-device contact resistance
// (multi-layer extraction); zero means ideal/drawn contacts.
type Lengths struct {
	DelayL, LeakL float64
	RContactOhm   float64
}

// ErrNonFiniteLength is the error Evaluate returns, wrapped with the gate
// site's name, when an annotation's DelayL, LeakL or RContactOhm is NaN or
// ±Inf. Such a length would make the cell's drive or leakage NaN, and a
// NaN arrival loses every max comparison in STA, so the gate's arcs would
// drop out of the timing without an error.
var ErrNonFiniteLength = errors.New("timinglib: non-finite annotated length")

// ErrNegativeContactResistance is the error Evaluate returns, wrapped with
// the gate site's name, when an annotation's RContactOhm is negative. With
// an enormous annotated length a negative contact resistance makes an
// arc's R·C term Inf − Inf, and the NaN arrivals drop out of the timing.
var ErrNegativeContactResistance = errors.New("timinglib: negative contact resistance")

// Annotator supplies effective lengths for a cell's gate sites. The site
// names are cell-local ("MN0_0"); the flow wraps this with per-instance
// extraction results. Returning the drawn length reproduces sign-off-style
// drawn-CD timing.
type Annotator func(site layout.GateSite) Lengths

// Drawn is the default annotator: every device at its drawn length.
func Drawn(site layout.GateSite) Lengths {
	l := float64(site.L())
	return Lengths{DelayL: l, LeakL: l}
}

// Uniform returns an annotator with every device at the given length.
func Uniform(lNM float64) Annotator {
	return func(layout.GateSite) Lengths { return Lengths{DelayL: lNM, LeakL: lNM} }
}

// Guardband returns the classic sign-off annotator: every device at its
// drawn length plus a blanket worst-case CD margin (positive = slower).
func Guardband(deltaNM float64) Annotator {
	return func(site layout.GateSite) Lengths {
		l := float64(site.L()) + deltaNM
		return Lengths{DelayL: l, LeakL: l}
	}
}

// Eval holds the evaluated electrical view of one cell (for one
// annotation): the numbers that depend on the annotated lengths. Input
// capacitance depends only on drawn geometry; see Lib.Cin.
type Eval struct {
	// IRiseUA and IFallUA are the effective pull-up/pull-down currents
	// (µA) driving output rise and fall.
	IRiseUA, IFallUA float64
	// RcRiseOhm and RcFallOhm are the extracted series contact
	// resistances of the pull-up/pull-down networks (0 = ideal).
	RcRiseOhm, RcFallOhm float64
	// LeakNW is the cell's static leakage (nW).
	LeakNW float64
}

// Lib computes cell timing for a library.
type Lib struct {
	// Dev is the device model. It must not change once Evaluate or Cin
	// has run: each cell's drawn-length Eval is computed from it once.
	Dev device.Model
	// P is the kit's electrical parameter block. It must not change once
	// Evaluate or Cin has run: the per-cell input capacitances are
	// computed from it once.
	P pdk.Device

	cells sync.Map // *stdcell.Info -> *cellView, see view
}

// cellView is what a Lib computes once per cell and shares, read-only,
// with every caller: the input-pin capacitances and the drawn-length Eval.
type cellView struct {
	cin   map[string]float64
	drawn Eval
}

// New builds the timing library for a kit.
func New(p *pdk.PDK) *Lib {
	return &Lib{Dev: device.New(p.Device), P: p.Device}
}

// Evaluate computes the electrical view of a cell under an annotation. A
// nil annotator is drawn timing: the cell's drawn Eval is computed once,
// on the cell's first use, by the same code as Evaluate(cell, Drawn), and
// returned from then on. An annotation with a NaN or infinite length or
// contact resistance fails with ErrNonFiniteLength, and one with a negative
// contact resistance with ErrNegativeContactResistance.
func (tl *Lib) Evaluate(cell *stdcell.Info, ann Annotator) (Eval, error) {
	if cell.Kind == stdcell.Fill {
		return Eval{}, fmt.Errorf("timinglib: fill cell %s has no timing", cell.Name)
	}
	if ann == nil {
		return tl.view(cell).drawn, nil
	}
	return tl.evaluate(cell, ann)
}

// evaluate is Evaluate's model: drive and contact resistance per network
// at the annotated delay lengths, leakage at the annotated leakage
// lengths.
func (tl *Lib) evaluate(cell *stdcell.Info, ann Annotator) (Eval, error) {
	var ev Eval
	var inUA, ipUA float64 // summed drive per network
	var rcN, rcP float64   // summed contact resistance per network
	var nN, nP int
	for _, g := range cell.Layout.Gates {
		ln := ann(g)
		if !finite(ln.DelayL) || !finite(ln.LeakL) || !finite(ln.RContactOhm) {
			return Eval{}, fmt.Errorf("%w: site %s of %s: DelayL %g, LeakL %g, RContactOhm %g",
				ErrNonFiniteLength, g.Name, cell.Name, ln.DelayL, ln.LeakL, ln.RContactOhm)
		}
		if ln.RContactOhm < 0 {
			return Eval{}, fmt.Errorf("%w: site %s of %s: RContactOhm %g",
				ErrNegativeContactResistance, g.Name, cell.Name, ln.RContactOhm)
		}
		wUm := float64(g.W()) / 1000
		// Drive at the annotated delay length.
		if g.Kind == layout.NMOS {
			inUA += wUm * tl.Dev.IonPerUm(layout.NMOS, ln.DelayL)
			rcN += ln.RContactOhm
			nN++
		} else {
			ipUA += wUm * tl.Dev.IonPerUm(layout.PMOS, ln.DelayL)
			rcP += ln.RContactOhm
			nP++
		}
		// Leakage at the annotated leakage length; on average half the
		// devices block.
		ev.LeakNW += 0.5 * wUm * tl.Dev.IoffPerUm(g.Kind, ln.LeakL) * tl.P.VDD
	}
	// Series stacks divide the available drive and chain their contacts.
	ev.IFallUA = inUA / float64(maxI(cell.StackedN, 1))
	ev.IRiseUA = ipUA / float64(maxI(cell.StackedP, 1))
	if nN > 0 {
		ev.RcFallOhm = rcN / float64(nN) * float64(maxI(cell.StackedN, 1))
	}
	if nP > 0 {
		ev.RcRiseOhm = rcP / float64(nP) * float64(maxI(cell.StackedP, 1))
	}
	return ev, nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Cin returns the cell's input-pin capacitances (fF by pin name): the
// gate-area term per µm of width, summed per pin in layout order. The
// drawn length is the poly the driver must charge, so no annotation
// enters. The map is computed on the first use of the cell and shared by
// every caller: read-only.
func (tl *Lib) Cin(cell *stdcell.Info) map[string]float64 {
	return tl.view(cell).cin
}

// view returns the cell's shared view, computing it on first use.
func (tl *Lib) view(cell *stdcell.Info) *cellView {
	if v, ok := tl.cells.Load(cell); ok {
		return v.(*cellView)
	}
	// Drawn lengths are whole nanometres, so the drawn Eval cannot fail.
	drawn, _ := tl.evaluate(cell, Drawn)
	v := &cellView{cin: map[string]float64{}, drawn: drawn}
	for _, g := range cell.Layout.Gates {
		wUm := float64(g.W()) / 1000
		v.cin[g.Pin] += tl.P.CGateFFUM * wUm
	}
	shared, _ := tl.cells.LoadOrStore(cell, v)
	return shared.(*cellView)
}

// Timing constants of the CV/I model.
const (
	// kDelay scales the RC product into a 50% propagation delay.
	kDelay = 0.69
	// kSlew scales the RC product into the 10-90% output transition.
	kSlew = 1.8
	// kSlewIn is the input-slew sensitivity of the delay.
	kSlewIn = 0.12
	// minSlewPS floors output transitions.
	minSlewPS = 4.0
)

// ArcDelay returns the propagation delay and output slew (both ps) of an
// input-to-output arc for the given output transition, load (fF) and input
// slew (ps).
func (tl *Lib) ArcDelay(ev Eval, outRise bool, loadFF, inSlewPS float64) (delayPS, outSlewPS float64) {
	i := ev.IFallUA
	rcon := ev.RcFallOhm
	if outRise {
		i = ev.IRiseUA
		rcon = ev.RcRiseOhm
	}
	if i <= 0 {
		// A cell with no drive (should not happen for comb cells): huge
		// delay rather than a crash.
		return 1e9, 1e9
	}
	// R·C in ps: C[fF]·VDD[V]/I[µA] × 1000, plus the extracted contact
	// series resistance (Ω·fF = 10⁻³ ps).
	rc := loadFF*tl.P.VDD/i*1000 + loadFF*rcon*1e-3
	delayPS = kDelay*rc + kSlewIn*inSlewPS
	outSlewPS = kSlew*rc + minSlewPS
	return
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
