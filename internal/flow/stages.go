package flow

import (
	"postopc/internal/cdx"
	"postopc/internal/geom"
	"postopc/internal/layout"
	"postopc/internal/litho"
	"postopc/internal/obs"
	"postopc/internal/opc"
)

// This file decomposes the per-window work of extraction (extract.go) and
// full-chip ORC (orc.go) into staged units — clip → canonicalize → OPC →
// image → contour → profile — communicating through typed artifacts. The
// window path (batch.go) runs them, imaging a batch of windows in one call
// (stageImageBatch). Every stage computes in canonical (window-origin)
// coordinates: the clipped geometry is translated so the window's
// lower-left corner is (0,0) before any simulation, which makes every
// float downstream a pure function of the window's content rather than of
// its chip position. That purity is what the content-addressed pattern
// cache (signature.go) relies on; it also means the cached and uncached
// paths run the same code on the same bytes, so enabling the cache can
// never change a result.
//
// Stage functions are deliberately free functions over an explicit
// *stageEnv, never methods on Flow: everything they read is either a
// parameter, a field of env or a constant, and env's fingerprint
// serializes every field into the cache signature. The cachekey analyzer
// (internal/analysis) enforces this shape — a stage* function must not be
// a method and must not read package-level state.

// stageEnv captures every Flow-derived input of the staged computations.
// Anything that can change a stage's output must be a field here AND must
// be folded into fingerprint by envFor; Workers-style scheduling knobs must
// never appear.
type stageEnv struct {
	// Verify is the accurate model driving imaging and verification.
	Verify litho.Model
	// OPCSim drives the OPC inner loop and EPE measurement.
	OPCSim litho.Model
	// Rule is the rule-based deck; non-nil exactly when Mode is OPCRule.
	Rule *opc.RuleTable
	// CDX configures gate CD extraction.
	CDX cdx.Options
	// Dev collapses CD profiles to equivalent lengths.
	Dev deviceModel
	// PitchNM is the kit's poly pitch (context ambit, rule reach, bridge
	// search range).
	PitchNM geom.Coord
	// Mode is the OPC applied to each window.
	Mode OPCMode

	// fingerprint is the canonical serialization of every field above —
	// the environment half of every window/tile signature.
	fingerprint []byte //postopc:keyignore the serialized key itself, not an input to it

	// obs, met and jrn carry the run's telemetry (write-only, nil-safe).
	// Like Workers, they are deliberately NOT part of fingerprint:
	// telemetry observes a computation without being an input to it, so two
	// runs differing only in instrumentation must share cache entries.
	obs *obs.Sink    //postopc:keyignore telemetry observes the computation without being an input
	met stageMetrics //postopc:keyignore telemetry observes the computation without being an input
	jrn *obs.Journal //postopc:keyignore telemetry observes the computation without being an input
}

// stageMetrics are the pre-resolved per-stage latency histograms of one
// environment, and the count of failed batch imaging calls. All handles
// are nil (no-ops) when telemetry is off.
type stageMetrics struct {
	clip, canonicalize, opc, image, contour, profile *obs.Histogram
	imageFallbacks                                   *obs.Counter
}

// newStageMetrics resolves the per-stage histograms from the sink.
func newStageMetrics(sink *obs.Sink) stageMetrics {
	return stageMetrics{
		clip:         sink.LatencyHistogram("flow.stage.clip_ns"),
		canonicalize: sink.LatencyHistogram("flow.stage.canonicalize_ns"),
		opc:          sink.LatencyHistogram("flow.stage.opc_ns"),
		image:        sink.LatencyHistogram("flow.stage.image_ns"),
		contour:      sink.LatencyHistogram("flow.stage.contour_ns"),
		profile:      sink.LatencyHistogram("flow.stage.profile_ns"),

		imageFallbacks: sink.Counter("flow.image_batch_fallbacks_total"),
	}
}

// WindowArtifact is the outcome of one window's OPC → image → contour →
// profile chain, in canonical coordinates. Artifacts are shared between
// cache hits and must be treated as immutable by every consumer.
type WindowArtifact struct {
	// Sites holds the per-transistor extractions, named by cell-local
	// device name.
	Sites []SiteCD
	// EPE summarizes the interior residual EPE of the window's OPC run at
	// nominal (zero-valued for OPCNone).
	EPE opc.EPEStats
	// EPEValues are the raw interior EPE samples behind EPE (nm).
	EPEValues []float64
}

// TileArtifact is the outcome of one ORC tile scan in canonical
// coordinates: hotspot locations are window-relative and instance names are
// unresolved (the caller maps At back to chip space and fills Gate).
// Artifacts are shared between cache hits and must be treated as immutable.
type TileArtifact struct {
	// Hotspots found in the tile, in scan order, Gate unset.
	Hotspots []Hotspot
	// ScannedCDs is the number of CD scans performed.
	ScannedCDs int
}

// stageClip clips the chip's poly layer inside window and canonicalizes it:
// geometry is translated to the window origin and put into canonical
// polygon order, so equal layout contexts anywhere on the chip produce
// byte-identical clips.
func stageClip(chip *layout.Chip, window geom.Rect) layout.CanonicalWindow {
	return chip.CanonicalWindowPolygons(layout.LayerPoly, window)
}

// stageOPC applies the environment's correction mode to the drawn polygons
// and, for the correcting modes with measureEPE set, measures the interior
// residual EPE of the corrected mask against the drawn target at nominal.
// interior bounds the EPE sample region (fragments created by clipping at
// the window boundary measure roll-off, not OPC quality).
func stageOPC(env *stageEnv, drawn []geom.Polygon, interior geom.Rect, measureEPE bool) (mask []geom.Polygon, epeValues []float64, err error) {
	switch env.Mode {
	case OPCNone:
		return drawn, nil, nil
	case OPCRule:
		var ctx geom.Region
		for _, pg := range drawn {
			ctx = append(ctx, geom.RegionFromPolygon(pg)...)
		}
		corrected, err := opc.RuleBased(drawn, ctx.Normalize(), env.Rule, opc.DefaultFragmentOptions(), 4*env.PitchNM)
		if err != nil {
			return nil, nil, err
		}
		if !measureEPE {
			return corrected, nil, nil
		}
		var targets []*opc.FragmentedPolygon
		for _, pg := range drawn {
			fp, err := opc.Fragmentize(pg, opc.DefaultFragmentOptions())
			if err != nil {
				return nil, nil, err
			}
			targets = append(targets, fp)
		}
		epes, _, err := opc.Verify(env.OPCSim, corrected, nil, targets, litho.Nominal, 8)
		if err != nil {
			return nil, nil, err
		}
		vals, err := interiorEPEs(targets, epes, interior)
		if err != nil {
			return nil, nil, err
		}
		return corrected, vals, nil
	default: // OPCModel
		res, err := opc.ModelBased(env.OPCSim, drawn, nil, opc.DefaultOptions())
		if err != nil {
			return nil, nil, err
		}
		if !measureEPE {
			return res.Polygons, nil, nil
		}
		vals, err := interiorEPEs(res.Fragmented, res.FinalEPE, interior)
		if err != nil {
			return nil, nil, err
		}
		return res.Polygons, vals, nil
	}
}

// stageContour extracts each gate site's printed CD profile from the
// corner images: the resist contour is sampled across every site's channel
// at each corner's effective threshold. Extractions are independent per
// (site, corner), so splitting them from the collapse (stageProfile) only
// regroups the computation — the floats are identical.
func stageContour(env *stageEnv, imgs []*litho.Image, sites []layout.GateSite, corners []litho.Corner) [][]cdx.GateCD {
	recipe := env.Verify.Recipe()
	out := make([][]cdx.GateCD, len(sites))
	for si, site := range sites {
		out[si] = make([]cdx.GateCD, len(corners))
		for ci, corner := range corners {
			th := recipe.EffectiveThreshold(corner)
			out[si][ci] = cdx.ExtractGate(imgs[ci], site, th, recipe.Polarity, env.CDX)
		}
	}
	return out
}

// stageProfile collapses the extracted CD profiles to per-corner summary
// statistics and equivalent lengths. gates is stageContour's output,
// indexed [site][corner]; sites are in canonical coordinates with
// cell-local names.
func stageProfile(env *stageEnv, gates [][]cdx.GateCD, sites []layout.GateSite, corners []litho.Corner) []SiteCD {
	out := make([]SiteCD, 0, len(sites))
	for si, site := range sites {
		sc := SiteCD{LocalName: site.Name, Kind: site.Kind, DrawnL: float64(site.L())}
		for ci, corner := range corners {
			g := gates[si][ci]
			cc := CornerCD{
				Corner:        corner,
				MeanCD:        g.MeanCD(),
				Nonuniformity: g.Nonuniformity(),
				Printed:       g.Printed,
			}
			if cds := g.CDs(); len(cds) > 0 {
				d, l, err := env.Dev.EquivalentLengths(site.Kind, cds)
				if err == nil {
					cc.DelayEL, cc.LeakEL = d, l
				} else {
					cc.Printed = false
				}
			}
			sc.PerCorner = append(sc.PerCorner, cc)
		}
		out = append(out, sc)
	}
	return out
}

// stageWindowOPC runs the OPC stage of one gate window (with its span and
// timer). rec receives the stage's duration for the run ledger (nil when
// no ledger).
func stageWindowOPC(env *stageEnv, clip layout.CanonicalWindow, rec *obs.WindowRecord, parent obs.SpanID) (mask []geom.Polygon, epeValues []float64, err error) {
	guard := env.Verify.Recipe().GuardNM
	sp := env.obs.StartChild("stage.opc", parent)
	t0 := env.met.opc.StartTimer()
	mask, epeValues, err = stageOPC(env, clip.Polys, clip.Bounds.Expand(-guard), true)
	rec.Observe(obs.StageOPC, env.met.opc.TimedSince(t0))
	sp.End()
	return mask, epeValues, err
}

// stageWindowArtifact runs the contour → profile stages of one gate
// window over its corner images.
func stageWindowArtifact(env *stageEnv, imgs []*litho.Image, sites []layout.GateSite, corners []litho.Corner, epeValues []float64, rec *obs.WindowRecord, parent obs.SpanID) *WindowArtifact {
	sp := env.obs.StartChild("stage.contour", parent)
	t0 := env.met.contour.StartTimer()
	gates := stageContour(env, imgs, sites, corners)
	rec.Observe(obs.StageContour, env.met.contour.TimedSince(t0))
	sp.End()
	sp = env.obs.StartChild("stage.profile", parent)
	t0 = env.met.profile.StartTimer()
	art := &WindowArtifact{
		Sites:     stageProfile(env, gates, sites, corners),
		EPEValues: epeValues,
	}
	if env.Mode != OPCNone {
		art.EPE = opc.SummarizeEPE(epeValues, 8)
	}
	rec.Observe(obs.StageProfile, env.met.profile.TimedSince(t0))
	sp.End()
	return art
}

// stageTileMask runs the OPC stage of one ORC tile (with its span and
// timer).
func stageTileMask(env *stageEnv, rects []geom.Rect, rec *obs.WindowRecord, parent obs.SpanID) ([]geom.Polygon, error) {
	var drawn []geom.Polygon
	for _, r := range rects {
		drawn = append(drawn, r.Polygon())
	}
	sp := env.obs.StartChild("stage.opc", parent)
	t0 := env.met.opc.StartTimer()
	mask, _, err := stageOPC(env, drawn, geom.Rect{}, false)
	rec.Observe(obs.StageOPC, env.met.opc.TimedSince(t0))
	sp.End()
	return mask, err
}

// stageTileArtifact runs the pinch / bridge / pullback scans of one tile
// over its corner images. rects are the canonical clipped poly rects, tile
// the canonical interior tile that owns the hotspots, maxPullbackNM the
// tolerated line-end pullback.
func stageTileArtifact(env *stageEnv, imgs []*litho.Image, rects []geom.Rect, tile geom.Rect, corners []litho.Corner, maxPullbackNM float64) *TileArtifact {
	art := &TileArtifact{}
	drawnRegion := geom.RegionFromRects(rects...).Normalize()
	recipe := env.Verify.Recipe()
	for ci, corner := range corners {
		th := recipe.EffectiveThreshold(corner)
		scanPinches(env, imgs[ci], rects, tile, th, corner, maxPullbackNM, art)
		scanBridges(env, imgs[ci], rects, drawnRegion, tile, th, corner, art)
	}
	return art
}
