package flow

import (
	"crypto/sha256"
	"encoding/hex"

	"postopc/internal/cache"
	"postopc/internal/cdx"
	"postopc/internal/geom"
	"postopc/internal/layout"
	"postopc/internal/litho"
	"postopc/internal/obs"
)

// Window signatures: each cached artifact is keyed by a SHA-256 over the
// canonical serialization of its full input — the environment fingerprint
// (models, OPC and extraction options, device parameters, mode) plus the
// canonical clipped geometry and the per-call parameters (sites, corners,
// scan settings). Two calls with equal signatures are guaranteed to compute
// identical artifacts, so the cache can substitute one for the other; the
// Workers and Batch options never enter a signature because scheduling
// must not change results.

// envFor builds the stage environment for mode, including the fingerprint.
// It is computed per call, never memoized on the Flow: sweeps tweak shallow
// Flow copies (sharing lazy state but differing in options), and a stale
// fingerprint would silently alias their signatures.
func (f *Flow) envFor(mode OPCMode) (*stageEnv, error) {
	env := &stageEnv{
		Verify: f.VerifySim,
		OPCSim: f.OPCModelSim,
		OPCOpt: f.OPCOpt,
		CDX: cdx.Options{
			Slices:       f.CDX.Slices,
			ScanHalfNM:   f.CDX.ScanHalfNM,
			EdgeMarginNM: f.CDX.EdgeMarginNM,
		},
		Dev:     f.Dev,
		PitchNM: f.PDK.Rules.PolyPitchNM,
		Mode:    mode,
		obs:     f.Obs,
		met:     newStageMetrics(f.Obs),
		jrn:     f.Obs.Ledger(),
	}
	if mode == OPCRule {
		rt, err := f.ruleTable()
		if err != nil {
			return nil, err
		}
		env.Rule = rt
	}
	b := geom.AppendKeyString(nil, "postopc/flow/v1")
	b = geom.AppendKeyInt(b, int64(env.Mode), int64(env.PitchNM))
	b = env.Verify.AppendKey(b)
	b = env.OPCSim.AppendKey(b)
	b = env.OPCOpt.AppendKey(b)
	if env.Rule != nil {
		b = env.Rule.AppendKey(b)
	}
	b = env.CDX.AppendKey(b)
	b = env.Dev.AppendKey(b)
	env.fingerprint = b
	// The run ledger's manifest carries a short digest of the environment
	// fingerprint, so two ledgers can be checked for comparable inputs
	// before their latencies are diffed.
	if env.jrn != nil {
		sum := sha256.Sum256(b)
		env.jrn.SetField("flow.env."+mode.String(), hex.EncodeToString(sum[:8]))
	}
	return env, nil
}

// windowSignature keys one gate-extraction window: environment, canonical
// clip, canonical sites, corners.
func windowSignature(env *stageEnv, clip layout.CanonicalWindow, sites []layout.GateSite, corners []litho.Corner) cache.Key {
	b := append([]byte(nil), env.fingerprint...)
	b = geom.AppendKeyString(b, "window")
	b = geom.AppendKeyRect(b, clip.Bounds)
	b = geom.AppendKeyPolygons(b, clip.Polys)
	b = geom.AppendKeyInt(b, int64(len(sites)))
	for _, s := range sites {
		b = geom.AppendKeyString(b, s.Name)
		b = geom.AppendKeyString(b, s.Pin)
		b = geom.AppendKeyInt(b, int64(s.Kind))
		b = geom.AppendKeyRect(b, s.Channel)
	}
	b = litho.AppendKeyCorners(b, corners)
	return cache.Key(sha256.Sum256(b))
}

// tileSignature keys one ORC tile: environment, canonical clipped rects,
// canonical window and tile bounds, corners, scan parameters.
func tileSignature(env *stageEnv, rects []geom.Rect, bounds, tile geom.Rect, corners []litho.Corner, scan orcScanOptions) cache.Key {
	b := append([]byte(nil), env.fingerprint...)
	b = geom.AppendKeyString(b, "tile")
	b = geom.AppendKeyRect(b, bounds)
	b = geom.AppendKeyRect(b, tile)
	b = geom.AppendKeyInt(b, int64(len(rects)))
	for _, r := range rects {
		b = geom.AppendKeyRect(b, r)
	}
	b = litho.AppendKeyCorners(b, corners)
	b = geom.AppendKeyFloat(b, scan.PinchFrac, scan.StepNM, scan.EndExclusionNM, scan.MaxPullbackNM)
	return cache.Key(sha256.Sum256(b))
}

// recordSig stamps the hex signature into a ledger record (nil-safe).
func recordSig(rec *obs.WindowRecord, key cache.Key) {
	if rec != nil {
		rec.Sig = hex.EncodeToString(key[:])
	}
}

// recordClass stamps the cache classification into a ledger record
// (nil-safe).
func recordClass(rec *obs.WindowRecord, class string) {
	if rec != nil {
		rec.Class = class
	}
}
