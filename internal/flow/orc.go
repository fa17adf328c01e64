package flow

import (
	"math"
	"sort"
	"strconv"

	"postopc/internal/cache"
	"postopc/internal/geom"
	"postopc/internal/layout"
	"postopc/internal/litho"
	"postopc/internal/obs"
)

// The abstract argues for a "post-OPC verification embedded design flow":
// beyond per-gate extraction, the full chip must be checked for outright
// printability failures. This file implements that ORC pass: the chip is
// tiled, each tile's poly is (optionally) OPC'd and imaged through the
// process window, and the printed image is scanned for pinching (a line
// narrowing below the process floor) and bridging (two lines merging).
//
// Each tile runs the window path (batch.go) in canonical (window-origin)
// coordinates, so tiles holding identical layout context — regular
// datapaths are full of them — share one simulation through the pattern
// cache when f.Cache is set.

// HotspotKind classifies a printability failure.
type HotspotKind uint8

const (
	// Pinch: a drawn feature prints below the minimum acceptable CD.
	Pinch HotspotKind = iota
	// Bridge: the space between two drawn features prints closed.
	Bridge
	// EndPullback: a line end retreats past the tolerated pullback (for
	// gate poly, pullback beyond the endcap margin breaks the channel).
	EndPullback
)

// String implements fmt.Stringer.
func (k HotspotKind) String() string {
	switch k {
	case Pinch:
		return "pinch"
	case Bridge:
		return "bridge"
	default:
		return "end-pullback"
	}
}

// Hotspot is one printability failure.
type Hotspot struct {
	// Kind is pinch or bridge.
	Kind HotspotKind
	// At is the failing location (nm, chip coordinates).
	At geom.Point
	// CDNM is the offending printed dimension (line CD for pinches, 0 for
	// a closed bridge).
	CDNM float64
	// Corner is the process condition that failed.
	Corner litho.Corner
	// Gate is the enclosing/nearest instance name ("" when outside any).
	Gate string
}

// ORCOptions configure full-chip verification.
type ORCOptions struct {
	// TileNM is the tile size (default 6000nm); each tile is simulated
	// with the optical guard band around it.
	TileNM geom.Coord
	// Corners are the process conditions to check (default: window
	// extremes of the kit).
	Corners []litho.Corner
	// Mode is the OPC applied per tile before imaging.
	Mode OPCMode
	// PinchFrac is the fraction of drawn width below which a printed CD
	// is a pinch (default 0.6).
	PinchFrac float64
	// StepNM is the scan step along features (default 120nm).
	StepNM float64
	// EndExclusionNM keeps CD scans away from line ends, which are judged
	// by the pullback check instead (default 160nm).
	EndExclusionNM float64
	// MaxPullbackNM is the tolerated line-end pullback (default: the
	// kit's poly endcap extension minus 20nm — more than that and the
	// retreat threatens the channel).
	MaxPullbackNM float64
	// Workers bounds tile-level concurrency (0 = GOMAXPROCS, 1 = serial).
	// The report is identical for every worker count: tiles are merged in
	// row-major order before hotspots are sorted.
	Workers int
	// Batch is the number of tiles per batch on the window path
	// (batch.go; <= 1 means one). Like Workers, Batch is a scheduling
	// knob: the report is byte-identical at every value, and it never
	// enters cache signatures.
	Batch int
}

// ORCReport is the outcome of VerifyChip.
type ORCReport struct {
	// Hotspots found, pinches first, sorted by severity (ascending CD).
	Hotspots []Hotspot
	// Tiles processed.
	Tiles int
	// ScannedCDs is the number of CD scans performed.
	ScannedCDs int
	// ByKind counts hotspots per kind.
	ByKind map[HotspotKind]int
}

// VerifyChip runs tiled ORC over the chip's poly layer.
func (f *Flow) VerifyChip(chip *layout.Chip, opt ORCOptions) (*ORCReport, error) {
	if opt.TileNM <= 0 {
		opt.TileNM = 6000
	}
	if len(opt.Corners) == 0 {
		opt.Corners = f.PDK.Window.Corners()
	}
	if opt.PinchFrac <= 0 {
		opt.PinchFrac = 0.6
	}
	if opt.StepNM <= 0 {
		opt.StepNM = 120
	}
	if opt.EndExclusionNM <= 0 {
		opt.EndExclusionNM = 160
	}
	if opt.MaxPullbackNM <= 0 {
		opt.MaxPullbackNM = float64(f.PDK.Rules.PolyExtNM) - 20
	}
	scan := orcScanOptions{
		PinchFrac:      opt.PinchFrac,
		StepNM:         opt.StepNM,
		EndExclusionNM: opt.EndExclusionNM,
		MaxPullbackNM:  opt.MaxPullbackNM,
	}
	die := chip.Die
	// Build shared state up front so the tile workers only read: the
	// chip's spatial index and the stage environment (with the OPC deck
	// for rule mode).
	chip.BuildIndex()
	env, err := f.envFor(opt.Mode)
	if err != nil {
		return nil, err
	}
	guard := env.Verify.Recipe().GuardNM
	var tiles []geom.Rect // row-major: the deterministic merge order
	for ty := die.Y0; ty < die.Y1; ty += opt.TileNM {
		for tx := die.X0; tx < die.X1; tx += opt.TileNM {
			tiles = append(tiles, geom.R(tx, ty, minC(tx+opt.TileNM, die.X1), minC(ty+opt.TileNM, die.Y1)))
		}
	}
	// Run-shape manifest fields for the ledger (see ExtractGates).
	if j := f.Obs.Ledger(); j != nil {
		j.SetField("flow.orc.mode", opt.Mode.String())
		j.SetField("flow.orc.workers", strconv.Itoa(opt.Workers))
		j.SetField("flow.orc.batch", strconv.Itoa(opt.Batch))
		j.SetField("flow.orc.corners", strconv.Itoa(len(opt.Corners)))
		j.SetField("flow.orc.tiles", strconv.Itoa(len(tiles)))
	}
	sp := f.Obs.Start("flow.orc")
	n := len(tiles)
	job := &orcTiles{
		env: env, chip: chip, tiles: tiles, guard: guard, corners: opt.Corners, scan: scan, parent: sp.ID(),
		origins: make([]geom.Point, n), rects: make([][]geom.Rect, n),
		windows: make([]geom.Rect, n), interiors: make([]geom.Rect, n),
	}
	arts, err := runWindows[*TileArtifact](f, env, job, n, opt.Batch, opt.Workers, "tile", opt.Corners, sp.ID())
	sp.End()
	if err != nil {
		return nil, err
	}
	// Hotspots map back to chip space with their owning instances, merged
	// in row-major tile order.
	rep := &ORCReport{ByKind: map[HotspotKind]int{}, Tiles: n}
	for i, art := range arts {
		if art == nil {
			continue // nothing drawn in the tile
		}
		rep.ScannedCDs += art.ScannedCDs
		for _, h := range art.Hotspots {
			h.At = geom.Pt(h.At.X+job.origins[i].X, h.At.Y+job.origins[i].Y)
			h.Gate = nearestInstance(chip, h.At)
			rep.add(h)
		}
	}
	// Stable sort over the row-major merge: hotspot ordering is
	// reproducible across runs and worker counts even under severity ties.
	sort.SliceStable(rep.Hotspots, func(i, j int) bool {
		a, b := rep.Hotspots[i], rep.Hotspots[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.CDNM < b.CDNM
	})
	return rep, nil
}

// orcTiles is the ORC job of the window path: one window per tile, the
// tile grown by the optical guard band and a poly pitch.
type orcTiles struct {
	env     *stageEnv
	chip    *layout.Chip
	tiles   []geom.Rect // chip coordinates, row-major
	guard   geom.Coord
	corners []litho.Corner
	scan    orcScanOptions
	parent  obs.SpanID
	origins []geom.Point  // canonical origin of each tile's window
	rects   [][]geom.Rect // canonical clipped poly rects
	// windows and interiors are each tile's window and tile in canonical
	// coordinates.
	windows, interiors []geom.Rect
}

func (j *orcTiles) prep(i int, rec *obs.WindowRecord) (bool, error) {
	env := j.env
	window := j.tiles[i].Expand(j.guard + env.PitchNM)
	sp := env.obs.StartChild("stage.clip", j.parent)
	t0 := env.met.clip.StartTimer()
	origin, rects := j.chip.CanonicalWindowRects(layout.LayerPoly, window)
	rec.Observe(obs.StageClip, env.met.clip.TimedSince(t0))
	sp.End()
	if len(rects) == 0 {
		return false, nil // nothing drawn: an empty tile, not an error
	}
	back := geom.Pt(-origin.X, -origin.Y)
	j.origins[i], j.rects[i] = origin, rects
	j.windows[i], j.interiors[i] = window.Translate(back), j.tiles[i].Translate(back)
	return true, nil
}

func (j *orcTiles) sign(i int) cache.Key {
	return tileSignature(j.env, j.rects[i], j.windows[i], j.interiors[i], j.corners, j.scan)
}

func (j *orcTiles) mask(i int, rec *obs.WindowRecord) ([]geom.Polygon, geom.Rect, error) {
	mask, err := stageTileMask(j.env, j.rects[i], rec, j.parent)
	return mask, j.windows[i], err
}

func (j *orcTiles) finish(i int, imgs []*litho.Image, _ *obs.WindowRecord) *TileArtifact {
	return stageTileArtifact(j.env, imgs, j.rects[i], j.interiors[i], j.corners, j.scan)
}

// wrap returns a tile's error as it is: ORC errors carry no tile name.
func (j *orcTiles) wrap(_ int, err error) error { return err }

// scanPinches walks each drawn poly rect lengthwise measuring the printed
// CD across it. Coordinates are canonical (window-relative); hotspots go to
// the tile artifact with Gate unresolved.
func scanPinches(env *stageEnv, im *litho.Image, rects []geom.Rect,
	tile geom.Rect, th float64, corner litho.Corner, scan orcScanOptions, art *TileArtifact) {
	recipe := env.Verify.Recipe()
	for _, r := range rects {
		vertical := r.H() >= r.W()
		var drawnW geom.Coord
		if vertical {
			drawnW = r.W()
		} else {
			drawnW = r.H()
		}
		minCD := scan.PinchFrac * float64(drawnW)
		scanHalf := float64(drawnW) * 2.5
		length := r.H()
		if !vertical {
			length = r.W()
		}
		// CD scans stay away from the ends (judged by the pullback check).
		lo := scan.EndExclusionNM
		hi := float64(length) - scan.EndExclusionNM
		steps := int((hi-lo)/scan.StepNM) + 1
		// Report at most one pinch per feature per corner: the worst scan.
		worst := Hotspot{CDNM: math.Inf(1)}
		found := false
		for s := 0; s < steps && hi > lo; s++ {
			frac := (float64(s) + 0.5) / float64(steps)
			pos := lo + frac*(hi-lo)
			var at geom.Point
			var res litho.CDResult
			if vertical {
				y := float64(r.Y0) + pos
				cx := float64(r.X0+r.X1) / 2
				at = geom.Pt(geom.Coord(cx), geom.Coord(y))
				res = im.MeasureCD(litho.AxisX, y, cx-scanHalf, cx+scanHalf, cx, th, recipe.Polarity)
			} else {
				x := float64(r.X0) + pos
				cy := float64(r.Y0+r.Y1) / 2
				at = geom.Pt(geom.Coord(x), geom.Coord(cy))
				res = im.MeasureCD(litho.AxisY, x, cy-scanHalf, cy+scanHalf, cy, th, recipe.Polarity)
			}
			art.ScannedCDs++
			if !tile.Contains(at) {
				continue // counted by the neighbouring tile
			}
			if !res.OK || res.CD < minCD {
				cd := 0.0
				if res.OK {
					cd = res.CD
				}
				if cd < worst.CDNM {
					worst = Hotspot{Kind: Pinch, At: at, CDNM: cd, Corner: corner}
					found = true
				}
			}
		}
		if found {
			art.Hotspots = append(art.Hotspots, worst)
		}
		scanPullback(env, im, r, vertical, tile, th, corner, scan, art)
	}
}

// scanPullback measures how far each line end of a feature retreats from
// its drawn position and flags retreats beyond the tolerance. Only long
// features (strips) have meaningful line ends; squares are judged by the
// pinch check alone.
func scanPullback(env *stageEnv, im *litho.Image, r geom.Rect, vertical bool,
	tile geom.Rect, th float64, corner litho.Corner, scan orcScanOptions, art *TileArtifact) {
	recipe := env.Verify.Recipe()
	length := r.H()
	if !vertical {
		length = r.W()
	}
	if float64(length) < 3*scan.EndExclusionNM {
		return
	}
	var res litho.CDResult
	var drawnLo, drawnHi float64
	if vertical {
		cx := float64(r.X0+r.X1) / 2
		mid := float64(r.Y0+r.Y1) / 2
		res = im.MeasureCD(litho.AxisY, cx, float64(r.Y0)-2*scan.MaxPullbackNM,
			float64(r.Y1)+2*scan.MaxPullbackNM, mid, th, recipe.Polarity)
		drawnLo, drawnHi = float64(r.Y0), float64(r.Y1)
	} else {
		cy := float64(r.Y0+r.Y1) / 2
		mid := float64(r.X0+r.X1) / 2
		res = im.MeasureCD(litho.AxisX, cy, float64(r.X0)-2*scan.MaxPullbackNM,
			float64(r.X1)+2*scan.MaxPullbackNM, mid, th, recipe.Polarity)
		drawnLo, drawnHi = float64(r.X0), float64(r.X1)
	}
	art.ScannedCDs++
	if !res.OK {
		return // total failure already reported as a pinch
	}
	report := func(pullback, pos float64) {
		if pullback <= scan.MaxPullbackNM {
			return
		}
		var at geom.Point
		if vertical {
			at = geom.Pt((r.X0+r.X1)/2, geom.Coord(pos))
		} else {
			at = geom.Pt(geom.Coord(pos), (r.Y0+r.Y1)/2)
		}
		if !tile.Contains(at) {
			return
		}
		art.Hotspots = append(art.Hotspots, Hotspot{Kind: EndPullback, At: at, CDNM: pullback, Corner: corner})
	}
	report(res.Lo-drawnLo, res.Lo)
	report(drawnHi-res.Hi, res.Hi)
}

// scanBridges samples the space between horizontally adjacent poly rects.
// drawn is the region of all drawn geometry in the window: a sample only
// counts as a bridge when resist prints where nothing is drawn (this also
// rejects pairs separated by an intermediate feature).
func scanBridges(env *stageEnv, im *litho.Image, rects []geom.Rect,
	drawn geom.Region, tile geom.Rect, th float64, corner litho.Corner, scan orcScanOptions, art *TileArtifact) {
	recipe := env.Verify.Recipe()
	printed := func(x, y float64) bool {
		v := im.Sample(x, y)
		if recipe.Polarity == litho.ClearField {
			return v < th
		}
		return v > th
	}
	maxSpace := 2 * env.PitchNM
	for i, a := range rects {
		for _, b := range rects[i+1:] {
			// Horizontal neighbours with y overlap.
			if b.X0 < a.X1 || b.X0-a.X1 > maxSpace {
				continue
			}
			y0 := maxC(a.Y0, b.Y0)
			y1 := minC(a.Y1, b.Y1)
			if y1 <= y0 {
				continue
			}
			midX := float64(a.X1+b.X0) / 2
			steps := int(float64(y1-y0)/scan.StepNM) + 1
			// At most one bridge hotspot per rect pair per corner.
			for s := 0; s < steps; s++ {
				y := float64(y0) + (float64(s)+0.5)/float64(steps)*float64(y1-y0)
				at := geom.Pt(geom.Coord(midX), geom.Coord(y))
				art.ScannedCDs++
				if !tile.Contains(at) || drawn.Contains(at) {
					continue
				}
				if printed(midX, y) {
					art.Hotspots = append(art.Hotspots, Hotspot{Kind: Bridge, At: at, CDNM: 0, Corner: corner})
					break
				}
			}
		}
	}
}

func (rep *ORCReport) add(h Hotspot) {
	rep.Hotspots = append(rep.Hotspots, h)
	rep.ByKind[h.Kind]++
}

// nearestInstance names the instance containing p (or "" if none).
func nearestInstance(chip *layout.Chip, p geom.Point) string {
	for _, in := range chip.InstancesIn(geom.R(p.X, p.Y, p.X+1, p.Y+1)) {
		return in.Name
	}
	return ""
}

func minC(a, b geom.Coord) geom.Coord {
	if a < b {
		return a
	}
	return b
}

func maxC(a, b geom.Coord) geom.Coord {
	if a > b {
		return a
	}
	return b
}
