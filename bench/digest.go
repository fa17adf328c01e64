package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"

	"postopc/internal/flow"
	"postopc/internal/litho"
	"postopc/internal/sta"
)

// digest is a SHA-256 over a canonical serialization of an op's results:
// maps are walked in sorted key order, strings are length-prefixed and
// floats are written as their IEEE-754 bits, so two ops digest equal
// exactly when their results are bit-identical.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) int(v int) { d.u64(uint64(int64(v))) }

func (d *digest) bool(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *digest) str(s string) {
	d.int(len(s))
	d.h.Write([]byte(s))
}

func (d *digest) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d *digest) floats(vs []float64) {
	d.int(len(vs))
	d.f64(vs...)
}

func (d *digest) corner(c litho.Corner) { d.f64(c.DefocusNM, c.Dose) }

// extractions writes per-gate extractions sorted by gate name: per site and
// corner the printed CD, nonuniformity, equivalent lengths and Printed, plus
// the window's EPE statistics and samples.
func (d *digest) extractions(exts map[string]*flow.GateExtraction) {
	names := make([]string, 0, len(exts))
	for n := range exts {
		names = append(names, n)
	}
	sort.Strings(names)
	d.int(len(names))
	for _, n := range names {
		e := exts[n]
		d.str(n)
		d.str(e.Cell)
		d.int(int(e.Mode))
		d.int(len(e.Sites))
		for _, s := range e.Sites {
			d.str(s.LocalName)
			d.int(int(s.Kind))
			d.f64(s.DrawnL)
			d.int(len(s.PerCorner))
			for _, c := range s.PerCorner {
				d.corner(c.Corner)
				d.f64(c.MeanCD, c.Nonuniformity, c.DelayEL, c.LeakEL)
				d.bool(c.Printed)
			}
		}
		d.int(e.EPE.Count)
		d.f64(e.EPE.Mean, e.EPE.Std, e.EPE.MaxAbs, e.EPE.P95Abs)
		d.int(e.EPE.Violations)
		d.floats(e.EPEValues)
	}
}

// analysis writes one STA result: WNS, TNS, leakage and every endpoint.
func (d *digest) analysis(r *sta.Result) {
	d.f64(r.WNS, r.TNS, r.LeakNW)
	d.int(len(r.Endpoints))
	for _, ep := range r.Endpoints {
		d.str(ep.Name)
		d.f64(ep.RequiredPS, ep.ArrivalPS, ep.SlackPS)
		d.bool(ep.Rise)
	}
}

// comparison writes the drawn-vs-annotated slack shift and rank comparison.
func (d *digest) comparison(s sta.SlackShift, r sta.RankComparison) {
	d.f64(s.WNSBase, s.WNSCmp, s.WNSShiftPct, s.MeanAbsShiftPS, s.MaxAbsShiftPS)
	d.f64(r.Spearman, r.KendallTau)
	d.int(r.N)
	ks := make([]int, 0, len(r.TopNOverlap))
	for k := range r.TopNOverlap {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	d.int(len(ks))
	for _, k := range ks {
		d.int(k)
		d.f64(r.TopNOverlap[k])
	}
}

// multiCorner writes the merged worst-slack table and the per-corner WNS.
func (d *digest) multiCorner(m *sta.MultiCornerResult) {
	d.f64(m.WNS, m.TNS)
	d.int(len(m.Corners))
	for _, c := range m.Corners {
		d.str(c.Name)
		d.f64(c.Res.WNS, c.Res.TNS, c.Res.LeakNW)
	}
	d.int(len(m.Merged))
	for _, e := range m.Merged {
		d.str(e.Name)
		d.str(e.Corner)
		d.f64(e.SlackPS, e.ArrivalPS, e.RequiredPS)
	}
}

// monteCarlo writes the sorted WNS and leakage samples and their summary.
func (d *digest) monteCarlo(mc flow.MCResult) {
	d.floats(mc.WNS)
	d.floats(mc.Leak)
	d.f64(mc.MeanWNS, mc.StdWNS)
}

// orc writes the full-chip verification report.
func (d *digest) orc(r *flow.ORCReport) {
	d.int(r.Tiles)
	d.int(r.ScannedCDs)
	d.int(len(r.Hotspots))
	for _, h := range r.Hotspots {
		d.int(int(h.Kind))
		d.int(int(h.At.X))
		d.int(int(h.At.Y))
		d.f64(h.CDNM)
		d.corner(h.Corner)
		d.str(h.Gate)
	}
}

// checkExtracted verifies that every tagged gate was extracted, nothing
// else was, and every site carries one entry per requested corner.
func checkExtracted(tagged []string, exts map[string]*flow.GateExtraction, corners int) error {
	if len(exts) != len(tagged) {
		return fmt.Errorf("%d gates tagged, %d extracted", len(tagged), len(exts))
	}
	for _, n := range tagged {
		e, ok := exts[n]
		if !ok {
			return fmt.Errorf("tagged gate %s not extracted", n)
		}
		for _, s := range e.Sites {
			if len(s.PerCorner) != corners {
				return fmt.Errorf("gate %s site %s has %d corners, want %d", n, s.LocalName, len(s.PerCorner), corners)
			}
		}
	}
	return nil
}

// checkFinite verifies that every named worst slack is a finite number.
func checkFinite(wns map[string]float64) error {
	names := make([]string, 0, len(wns))
	for n := range wns {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if v := wns[n]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s WNS is %v", n, v)
		}
	}
	return nil
}

// checkMultiCorner verifies the corner count of a multi-corner result.
func checkMultiCorner(m *sta.MultiCornerResult, corners int) error {
	if len(m.Corners) != corners {
		return fmt.Errorf("multi-corner analysis has %d corners, want %d", len(m.Corners), corners)
	}
	return nil
}

// checkMonteCarlo verifies the sample count and that every sample is finite.
func checkMonteCarlo(mc flow.MCResult, samples int) error {
	if len(mc.WNS) != samples {
		return fmt.Errorf("Monte Carlo drew %d samples, want %d", len(mc.WNS), samples)
	}
	for _, v := range mc.WNS {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("Monte Carlo WNS sample is %v", v)
		}
	}
	return nil
}

// unprintedSites counts the extracted sites that failed to print at any
// corner (pinched gates).
func unprintedSites(exts map[string]*flow.GateExtraction) int {
	n := 0
	for _, e := range exts {
		for _, s := range e.Sites {
			for _, c := range s.PerCorner {
				if !c.Printed {
					n++
					break
				}
			}
		}
	}
	return n
}
