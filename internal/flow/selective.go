package flow

import (
	"fmt"
	"sort"

	"postopc/internal/layout"
	"postopc/internal/sta"
)

// The paper's DFM feedback loop: pass design intent (tagged critical gates)
// to the OPC side and spend aggressive correction only where timing needs
// it. The sweep extracts the chip uncorrected once, then walks an
// increasing tagging depth K, re-extracting only the newly tagged windows.
// With the pattern cache enabled the sweep's cost is incremental by
// construction: gates tagged at step K were already simulated at step K−1
// (same window signature), so each step pays only for its newly tagged
// contexts — and repeated cell contexts collapse further.

// selectiveCritPaths is the number of worst drawn paths whose gates the
// sweep's CD metric is evaluated over.
const selectiveCritPaths = 5

// SelectiveStep is the outcome of one tagging depth.
type SelectiveStep struct {
	// K is the tagging depth (number of worst paths tagged).
	K int
	// Tagged are the gates OPC'd at this depth.
	Tagged []string
	// WNS is the annotated worst slack (ps) at nominal.
	WNS float64
	// DeltaWNS is WNS minus the full-OPC reference WNS (ps).
	DeltaWNS float64
	// MeanAbsCDErrNM averages |meanCD − drawn| over the critical gates'
	// sites (nm) — the paper's CD-control metric.
	MeanAbsCDErrNM float64
}

// SelectiveResult is the outcome of SelectiveSweep.
type SelectiveResult struct {
	// Steps holds one entry per requested K, in order.
	Steps []SelectiveStep
	// FullWNS is the reference worst slack with model OPC applied
	// everywhere.
	FullWNS float64
	// FullMeanAbsCDErrNM is the CD metric of the full correction.
	FullMeanAbsCDErrNM float64
	// GatesTotal is the number of extractable gates on the chip.
	GatesTotal int
	// CriticalGates are the gates the CD metric is evaluated on.
	CriticalGates []string
}

// SelectiveSweep runs the selective-OPC loop on a placed chip: drawn is the
// sign-off analysis used to tag critical paths, cfg the STA conditions for
// the annotated re-analyses, and ks the tagging depths to sweep (paths
// tagged per step; 0 means "no OPC anywhere"). Tagged gates get model OPC,
// and every extraction is at nominal.
func (f *Flow) SelectiveSweep(chip *layout.Chip, g *sta.Graph, drawn *sta.Result, cfg sta.Config, ks []int) (*SelectiveResult, error) {
	if len(ks) == 0 {
		return nil, fmt.Errorf("flow: selective sweep needs at least one tagging depth")
	}
	sel := ExtractOptions{Mode: OPCModel} // at nominal, like the baseline

	noOPC, err := f.ExtractGates(chip, nil, ExtractOptions{Mode: OPCNone})
	if err != nil {
		return nil, err
	}
	fullOPC, err := f.ExtractGates(chip, nil, sel)
	if err != nil {
		return nil, err
	}
	fullAnn, err := AnnotationsAt(fullOPC, 0)
	if err != nil {
		return nil, err
	}
	fullRes, err := g.Analyze(cfg, fullAnn)
	if err != nil {
		return nil, err
	}
	crit := drawn.CriticalGates(selectiveCritPaths)
	sort.Strings(crit)
	critSet := make(map[string]bool, len(crit))
	for _, n := range crit {
		critSet[n] = true
	}
	out := &SelectiveResult{
		FullWNS:            fullRes.WNS,
		FullMeanAbsCDErrNM: MeanAbsCDError(fullOPC, critSet),
		GatesTotal:         len(fullOPC),
		CriticalGates:      crit,
	}
	for _, k := range ks {
		extrs := make(map[string]*GateExtraction, len(noOPC))
		for name, e := range noOPC {
			extrs[name] = e
		}
		var tagged []string
		if k > 0 {
			tagged = drawn.CriticalGates(k)
			selExtrs, err := f.ExtractGates(chip, tagged, sel)
			if err != nil {
				return nil, err
			}
			for name, e := range selExtrs {
				extrs[name] = e
			}
		}
		ann, err := AnnotationsAt(extrs, 0)
		if err != nil {
			return nil, err
		}
		res, err := g.Analyze(cfg, ann)
		if err != nil {
			return nil, err
		}
		out.Steps = append(out.Steps, SelectiveStep{
			K:              k,
			Tagged:         tagged,
			WNS:            res.WNS,
			DeltaWNS:       res.WNS - fullRes.WNS,
			MeanAbsCDErrNM: MeanAbsCDError(extrs, critSet),
		})
	}
	return out, nil
}

// MeanAbsCDError averages |meanCD − drawn| at the first extracted corner
// over the sites of the selected gates (nm). Gates are summed in name
// order, so the result does not depend on map iteration order.
func MeanAbsCDError(extrs map[string]*GateExtraction, gates map[string]bool) float64 {
	var names []string
	for name := range extrs {
		if gates[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var sum float64
	n := 0
	for _, name := range names {
		for _, s := range extrs[name].Sites {
			if len(s.PerCorner) == 0 {
				continue
			}
			d := s.PerCorner[0].MeanCD - s.DrawnL
			if d < 0 {
				d = -d
			}
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
