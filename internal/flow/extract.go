package flow

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"postopc/internal/cache"
	"postopc/internal/cdx"
	"postopc/internal/geom"
	"postopc/internal/layout"
	"postopc/internal/litho"
	"postopc/internal/obs"
	"postopc/internal/opc"
)

// CornerCD is one gate site's extraction under one process corner.
type CornerCD struct {
	// Corner is the process condition.
	Corner litho.Corner
	// MeanCD is the average printed channel length (nm).
	MeanCD float64
	// Nonuniformity is max−min CD across the gate width (nm).
	Nonuniformity float64
	// DelayEL and LeakEL are the equivalent lengths (nm).
	DelayEL, LeakEL float64
	// Printed is false when any slice failed (pinched gate).
	Printed bool
}

// SiteCD is the extraction of one transistor across all corners.
type SiteCD struct {
	// LocalName is the cell-local device name ("MN0_0").
	LocalName string
	// Kind is NMOS or PMOS.
	Kind layout.DeviceKind
	// DrawnL is the drawn channel length (nm).
	DrawnL float64
	// PerCorner holds one entry per requested corner, in order.
	PerCorner []CornerCD
}

// GateExtraction is the post-OPC extraction of one placed gate instance.
type GateExtraction struct {
	// Gate is the instance (and netlist gate) name.
	Gate string
	// Cell is the library cell.
	Cell string
	// Sites are the instance's transistors.
	Sites []SiteCD
	// EPE is the residual-EPE report of the window's OPC run at nominal
	// (zero-valued for OPCNone).
	EPE opc.EPEStats
	// EPEValues are the raw interior EPE samples behind EPE (nm), for
	// histogramming.
	EPEValues []float64
	// Mode records the OPC applied.
	Mode OPCMode
}

// ExtractOptions configure window extraction.
type ExtractOptions struct {
	// Corners are the process conditions to extract (default: Nominal).
	Corners []litho.Corner
	// Mode selects the OPC applied to each window.
	Mode OPCMode
	// Workers bounds batch-level concurrency in ExtractGates
	// (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Batch is the number of windows per batch on the window path
	// (batch.go; <= 1 means one). A batch images its windows in one
	// litho.BatchModel call, amortizing FFT plans and scratch across them.
	// Like Workers, Batch is a scheduling knob: results are byte-identical
	// at every value, and it never enters cache signatures.
	Batch int
}

// ExtractInstance runs the window path (batch.go) for one placed
// instance: clip → canonicalize → OPC → image → contour → profile (see
// stages.go). All simulation happens in canonical window coordinates, so
// the result for an instance depends only on its layout context — and,
// when f.Cache is set, repeated contexts are recalled instead of
// recomputed.
func (f *Flow) ExtractInstance(chip *layout.Chip, inst *layout.Instance, opt ExtractOptions) (*GateExtraction, error) {
	env, err := f.envFor(opt.Mode)
	if err != nil {
		return nil, err
	}
	if len(opt.Corners) == 0 {
		opt.Corners = []litho.Corner{litho.Nominal}
	}
	exts, err := f.extractWindows(env, chip, []*layout.Instance{inst}, opt, 0)
	if err != nil {
		return nil, err
	}
	return exts[0], nil
}

// gateWindows is the extraction job of the window path: one window per
// placed instance, holding the instance's gate sites.
type gateWindows struct {
	env     *stageEnv
	chip    *layout.Chip
	insts   []*layout.Instance
	corners []litho.Corner
	parent  obs.SpanID
	clips   []layout.CanonicalWindow
	sites   [][]layout.GateSite // canonical: cell-local names, window-relative channels
	epe     [][]float64         // interior EPE samples of each leader's OPC
}

func (j *gateWindows) prep(i int, rec *obs.WindowRecord) (bool, error) {
	env, inst := j.env, j.insts[i]
	sites := inst.GateSites()
	if len(sites) == 0 {
		return false, fmt.Errorf("flow: instance %s has no gate sites", inst.Name)
	}
	sp := env.obs.StartChild("stage.clip", j.parent)
	t0 := env.met.clip.StartTimer()
	clip := stageClip(j.chip, cdx.WindowOf(sites, env.Verify.Recipe().GuardNM+env.PitchNM))
	rec.Observe(obs.StageClip, env.met.clip.TimedSince(t0))
	sp.End()
	if len(clip.Polys) == 0 {
		return false, fmt.Errorf("flow: no poly in window of %s", inst.Name)
	}
	// Canonicalize the sites to match the clip: cell-local names,
	// window-relative channels. Instance identity must not reach the
	// artifact — it would defeat both caching and determinism.
	sp = env.obs.StartChild("stage.canonicalize", j.parent)
	t0 = env.met.canonicalize.StartTimer()
	csites := make([]layout.GateSite, len(sites))
	for si, s := range sites {
		csites[si] = layout.GateSite{
			Name:    localSiteName(s.Name),
			Pin:     s.Pin,
			Kind:    s.Kind,
			Channel: s.Channel.Translate(geom.Pt(-clip.Origin.X, -clip.Origin.Y)),
		}
	}
	rec.Observe(obs.StageCanonicalize, env.met.canonicalize.TimedSince(t0))
	sp.End()
	j.clips[i], j.sites[i] = clip, csites
	return true, nil
}

func (j *gateWindows) sign(i int) cache.Key {
	return windowSignature(j.env, j.clips[i], j.sites[i], j.corners)
}

func (j *gateWindows) mask(i int, rec *obs.WindowRecord) ([]geom.Polygon, geom.Rect, error) {
	mask, epe, err := stageWindowOPC(j.env, j.clips[i], rec, j.parent)
	j.epe[i] = epe
	return mask, j.clips[i].Bounds, err
}

func (j *gateWindows) finish(i int, imgs []*litho.Image, rec *obs.WindowRecord) *WindowArtifact {
	return stageWindowArtifact(j.env, imgs, j.sites[i], j.corners, j.epe[i], rec, j.parent)
}

func (j *gateWindows) wrap(i int, err error) error {
	return fmt.Errorf("flow: window of %s: %w", j.insts[i].Name, err)
}

// extractWindows extracts insts through the window path and returns their
// extractions by index. env is built once by the caller; parent is the
// telemetry span the stage spans nest under (0 for a root).
func (f *Flow) extractWindows(env *stageEnv, chip *layout.Chip, insts []*layout.Instance, opt ExtractOptions, parent obs.SpanID) ([]*GateExtraction, error) {
	n := len(insts)
	job := &gateWindows{
		env: env, chip: chip, insts: insts, corners: opt.Corners, parent: parent,
		clips: make([]layout.CanonicalWindow, n), sites: make([][]layout.GateSite, n), epe: make([][]float64, n),
	}
	arts, err := runWindows[*WindowArtifact](f, env, job, n, opt.Batch, opt.Workers, "window", opt.Corners, parent)
	if err != nil {
		return nil, err
	}
	exts := make([]*GateExtraction, n)
	for i, art := range arts {
		// The artifact is shared between cache hits; the extraction
		// borrows its slices rather than copying, so consumers must not
		// mutate them.
		exts[i] = &GateExtraction{
			Gate:      insts[i].Name,
			Cell:      insts[i].Cell.Name,
			Sites:     art.Sites,
			EPE:       art.EPE,
			EPEValues: art.EPEValues,
			Mode:      opt.Mode,
		}
	}
	return exts, nil
}

// interiorEPEs keeps only the EPE samples whose fragment control point lies
// inside the interior rectangle: fragments created by clipping shapes at
// the simulation-window boundary measure the clear-field roll-off, not OPC
// quality. A sample/fragment count mismatch is an explicit error — EPE
// statistics must never be quietly computed over a truncated sample set.
func interiorEPEs(frags []*opc.FragmentedPolygon, epes []float64, interior geom.Rect) ([]float64, error) {
	total := 0
	for _, fp := range frags {
		total += len(fp.Frags)
	}
	if total != len(epes) {
		return nil, fmt.Errorf("%d EPE samples for %d fragments", len(epes), total)
	}
	var out []float64
	i := 0
	for _, fp := range frags {
		for _, fr := range fp.Frags {
			if interior.Contains(fr.Control) {
				out = append(out, epes[i])
			}
			i++
		}
	}
	return out, nil
}

// ExtractGates runs ExtractInstance for the named gates (or all netlist
// gates when names is nil). Results are keyed by instance name.
func (f *Flow) ExtractGates(chip *layout.Chip, names []string, opt ExtractOptions) (map[string]*GateExtraction, error) {
	if names == nil {
		for i := range chip.Instances {
			in := &chip.Instances[i]
			if len(in.Cell.Gates) > 0 && !strings.HasPrefix(in.Name, "fill") {
				names = append(names, in.Name)
			}
		}
	}
	sort.Strings(names)
	// Resolve instances up front (and build the chip index once) so the
	// parallel workers only read shared state.
	insts := make([]*layout.Instance, len(names))
	for i, name := range names {
		inst := chip.FindInstance(name)
		if inst == nil {
			return nil, fmt.Errorf("flow: instance %s not found on chip", name)
		}
		insts[i] = inst
	}
	chip.BuildIndex()
	// Build the stage environment (and, for rule mode, the OPC deck) once
	// so the parallel workers only read shared state.
	env, err := f.envFor(opt.Mode)
	if err != nil {
		return nil, err
	}
	if len(opt.Corners) == 0 {
		opt.Corners = []litho.Corner{litho.Nominal}
	}

	// Run-shape manifest fields: how this extraction was scheduled, so a
	// ledger diff can tell config drift from genuine regressions.
	if j := f.Obs.Ledger(); j != nil {
		j.SetField("flow.extract.mode", opt.Mode.String())
		j.SetField("flow.extract.workers", strconv.Itoa(opt.Workers))
		j.SetField("flow.extract.batch", strconv.Itoa(opt.Batch))
		j.SetField("flow.extract.corners", strconv.Itoa(len(opt.Corners)))
		j.SetField("flow.extract.gates", strconv.Itoa(len(names)))
		if f.Cache != nil {
			j.SetField("flow.cache.entries", strconv.Itoa(f.Cache.Cap()))
		} else {
			j.SetField("flow.cache.entries", "off")
		}
	}

	sp := f.Obs.Start("flow.extract")
	exts, err := f.extractWindows(env, chip, insts, opt, sp.ID())
	sp.End()
	if err != nil {
		return nil, err
	}
	out := make(map[string]*GateExtraction, len(names))
	for i, name := range names {
		out[name] = exts[i]
	}
	return out, nil
}

func localSiteName(qualified string) string {
	if i := strings.LastIndex(qualified, "/"); i >= 0 {
		return qualified[i+1:]
	}
	return qualified
}
