// Package flow implements the paper's methodology end to end: tag critical
// gates from a drawn-CD STA, clip per-gate layout windows from the placed
// chip, apply OPC, run patterning-process simulation through the process
// window, extract post-OPC gate CDs, collapse them to equivalent lengths,
// back-annotate the timing model, re-run STA and compare — plus the
// selective-OPC DFM loop and Monte Carlo statistical timing over realistic
// CD distributions.
package flow

import (
	"sync"

	"postopc/internal/cache"
	"postopc/internal/cdx"
	"postopc/internal/geom"
	"postopc/internal/layout"
	"postopc/internal/litho"
	"postopc/internal/netlist"
	"postopc/internal/obs"
	"postopc/internal/opc"
	"postopc/internal/pdk"
	"postopc/internal/place"
	"postopc/internal/sta"
	"postopc/internal/stdcell"
	"postopc/internal/timinglib"
)

// OPCMode selects the correction applied to each simulated window.
type OPCMode int

const (
	// OPCNone images the drawn layout as-is.
	OPCNone OPCMode = iota
	// OPCRule applies table-lookup (rule-based) correction.
	OPCRule
	// OPCModel applies iterative model-based correction.
	OPCModel
)

// String implements fmt.Stringer.
func (m OPCMode) String() string {
	switch m {
	case OPCNone:
		return "none"
	case OPCRule:
		return "rule"
	default:
		return "model"
	}
}

// Flow bundles the technology stack of one run.
type Flow struct {
	// PDK is the kit.
	PDK *pdk.PDK
	// Lib is the generated cell library.
	Lib *stdcell.Library
	// TL is the timing library.
	TL *timinglib.Lib
	// Dev is the device model.
	Dev deviceModel
	// OPCModelSim drives the OPC inner loop (fast model by default, as in
	// production).
	OPCModelSim litho.Model
	// VerifySim drives extraction/verification (the accurate model).
	VerifySim litho.Model
	// CDX configures gate CD extraction.
	CDX cdx.Options
	// Cache, when non-nil, memoizes window and tile artifacts by content
	// signature (see signature.go): repeated layout contexts — and repeated
	// extractions of the same gates across sweep iterations — are recalled
	// instead of resimulated. Results are byte-identical with and without
	// it, at any worker count. Shallow Flow copies share the store, which
	// is safe: signatures capture every option a copy might tweak.
	Cache *cache.Store
	// Obs, when non-nil, receives run telemetry — per-stage spans and
	// latency histograms, cache/kernel/scheduler counters (see EnableObs).
	// Telemetry is write-only: like Workers, it never enters a signature
	// and never changes a result.
	Obs *obs.Sink

	// lazy holds the members built on first use. It is a pointer so that
	// shallow copies of a Flow (e.g. per-sweep option tweaks) share one
	// build, and so the struct stays free of copyable locks.
	lazy *lazyInits
}

// lazyInits guards the Flow members that are built on first use. Concurrent
// extraction and verification workers all funnel through it, so a
// half-written pointer or double build cannot be observed.
type lazyInits struct {
	ruleOnce sync.Once
	rule     *opc.RuleTable
	ruleErr  error

	contactOnce sync.Once
	contact     litho.Model
	contactErr  error
}

// deviceModel collapses printed CD profiles to equivalent lengths. Its
// AppendKey serializes every parameter that can change a result into the
// cache signatures (see signature.go).
type deviceModel = interface {
	EquivalentLengths(kind layout.DeviceKind, cds []float64) (float64, float64, error)
	AppendKey(dst []byte) []byte
}

// Config selects the simulation accuracy profile.
type Config struct {
	// Fast uses the Gaussian model for verification too — for tests and
	// quick sweeps. Default (false) verifies with the Abbe model.
	Fast bool
}

// New assembles a Flow for the kit.
func New(p *pdk.PDK, cfg Config) (*Flow, error) {
	lib, err := stdcell.NewLibrary(p)
	if err != nil {
		return nil, err
	}
	gauss, err := p.FastModel()
	if err != nil {
		return nil, err
	}
	var verify litho.Model = gauss
	if !cfg.Fast {
		abbe, err := litho.NewAbbe(p.Litho)
		if err != nil {
			return nil, err
		}
		verify = abbe
	}
	tl := timinglib.New(p)
	return &Flow{
		PDK:         p,
		Lib:         lib,
		TL:          tl,
		Dev:         tl.Dev,
		OPCModelSim: gauss,
		VerifySim:   verify,
		CDX: cdx.Options{
			Slices:       7,
			ScanHalfNM:   float64(p.Rules.PolyPitchNM) / 2,
			EdgeMarginNM: 25,
		},
		lazy: &lazyInits{},
	}, nil
}

// EnableCache attaches a pattern cache bounded to roughly maxEntries
// artifacts (<= 0 selects the default bound) and returns f for chaining.
func (f *Flow) EnableCache(maxEntries int) *Flow {
	f.Cache = cache.New(maxEntries)
	if f.Obs.Enabled() {
		f.Cache.Instrument(f.Obs)
	}
	return f
}

// EnableObs attaches a telemetry sink to the run and returns f for
// chaining: the pattern cache (if attached), both litho models, the
// package-level scratch pools and every graph built afterwards report into
// it, and the window path emits per-stage spans and latency histograms.
// EnableObs in either order with EnableCache works. A nil sink detaches
// nothing but is harmless — telemetry is already off by default.
func (f *Flow) EnableObs(sink *obs.Sink) *Flow {
	f.Obs = sink
	if f.Cache != nil {
		f.Cache.Instrument(sink)
	}
	if m, ok := f.VerifySim.(interface{ Instrument(*obs.Sink) }); ok {
		m.Instrument(sink)
	}
	if f.OPCModelSim != f.VerifySim {
		if m, ok := f.OPCModelSim.(interface{ Instrument(*obs.Sink) }); ok {
			m.Instrument(sink)
		}
	}
	litho.InstrumentPools(sink)
	return f
}

// CacheStats snapshots the pattern cache's counters (zero Stats when no
// cache is attached).
func (f *Flow) CacheStats() cache.Stats {
	if f.Cache == nil {
		return cache.Stats{}
	}
	return f.Cache.Stats()
}

// Place runs the row placer on a netlist.
func (f *Flow) Place(n *netlist.Netlist, opt place.Options) (*place.Result, error) {
	return place.Place(n, f.Lib, opt)
}

// BuildGraph constructs the STA graph (instrumented when Obs is set).
func (f *Flow) BuildGraph(n *netlist.Netlist) (*sta.Graph, error) {
	g, err := sta.Build(n, f.Lib, f.TL)
	if err != nil {
		return nil, err
	}
	g.Instrument(f.Obs)
	return g, nil
}

// ruleTable returns the rule-based OPC deck, building it from the OPC model
// exactly once — safe for concurrent callers.
func (f *Flow) ruleTable() (*opc.RuleTable, error) {
	f.lazy.ruleOnce.Do(func() {
		w := f.PDK.Rules.GateLengthNM
		spaces := []geom.Coord{
			f.PDK.Rules.PolySpaceNM,
			f.PDK.Rules.PolyPitchNM - w,
			2*f.PDK.Rules.PolyPitchNM - w,
			4 * f.PDK.Rules.PolyPitchNM,
		}
		f.lazy.rule, f.lazy.ruleErr = opc.BuildRuleTable(f.OPCModelSim, w, spaces)
	})
	return f.lazy.rule, f.lazy.ruleErr
}
