package postopc

// Shared fixtures for the experiment benchmarks (bench_test.go). The heavy
// artefacts — the placed evaluation design and its per-gate extractions —
// are computed once and reused across E5..E8, mirroring how the paper runs
// one extraction pass and many analyses.

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"postopc/internal/flow"
	"postopc/internal/litho"
	"postopc/internal/netlist"
	"postopc/internal/pdk"
	"postopc/internal/place"
	"postopc/internal/sta"
)

// evalDesign is the shared evaluation circuit: a datapath block of
// identical-depth slices whose endpoint slacks form a tight "slack wall" —
// the regime where context-dependent CD shifts visibly reorder speed-path
// criticality, as in the paper's placed-and-routed test block.
const (
	evalChains = 32
	evalDepth  = 10
	evalSeed   = 3
)

type fixtures struct {
	kit   *pdk.PDK
	flw   *flow.Flow // fast (Gaussian-verified) flow for the big sweeps
	efl   *flow.Flow // exact (Abbe-verified) flow for small structures
	nl    *netlist.Netlist
	plc   *place.Result
	graph *sta.Graph
	cfg   sta.Config // tight clock: 3% over the drawn critical path
	drawn *sta.Result

	extModel map[string]*flow.GateExtraction // model OPC, variation corners
	extNone  map[string]*flow.GateExtraction // no OPC, nominal only
}

var (
	fixOnce sync.Once
	fix     *fixtures
	fixErr  error
)

func getFixtures(b *testing.B) *fixtures {
	b.Helper()
	fixOnce.Do(func() { fix, fixErr = buildFixtures() })
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fix
}

func buildFixtures() (*fixtures, error) {
	f := &fixtures{kit: pdk.N90()}
	var err error
	if f.flw, err = flow.New(f.kit, flow.Config{Fast: true}); err != nil {
		return nil, err
	}
	if f.efl, err = flow.New(f.kit, flow.Config{Fast: false}); err != nil {
		return nil, err
	}
	f.nl = netlist.Datapath(evalChains, evalDepth, evalSeed)
	if f.plc, err = f.flw.Place(f.nl, place.Options{}); err != nil {
		return nil, err
	}
	if f.graph, err = f.flw.BuildGraph(f.nl); err != nil {
		return nil, err
	}
	probe, err := f.graph.Analyze(sta.DefaultConfig(100000), nil)
	if err != nil {
		return nil, err
	}
	f.cfg = sta.DefaultConfig(1.03 * (100000 - probe.WNS))
	f.cfg.KPaths = 20
	if f.drawn, err = f.graph.Analyze(f.cfg, nil); err != nil {
		return nil, err
	}
	fmt.Printf("# eval design %s: %d gates, %d endpoints, clock %.0fps (drawn WNS %.1fps)\n",
		f.nl.Name, len(f.nl.Gates), len(f.drawn.Endpoints), f.cfg.ClockPS, f.drawn.WNS)
	return f, nil
}

// extractions returns (and caches) the full-chip model-OPC extraction at
// the variation corners, verified with the physical Abbe model.
func (f *fixtures) extractions(b *testing.B) map[string]*flow.GateExtraction {
	b.Helper()
	if f.extModel == nil {
		ext, err := f.efl.ExtractGates(f.plc.Chip, nil, flow.ExtractOptions{
			Corners: flow.VariationCorners(f.kit.Window),
			Mode:    flow.OPCModel,
		})
		if err != nil {
			b.Fatal(err)
		}
		f.extModel = ext
	}
	return f.extModel
}

// extractionsNoOPC returns (and caches) the uncorrected Abbe extraction.
func (f *fixtures) extractionsNoOPC(b *testing.B) map[string]*flow.GateExtraction {
	b.Helper()
	if f.extNone == nil {
		ext, err := f.efl.ExtractGates(f.plc.Chip, nil, flow.ExtractOptions{
			Corners: []litho.Corner{litho.Nominal},
			Mode:    flow.OPCNone,
		})
		if err != nil {
			b.Fatal(err)
		}
		f.extNone = ext
	}
	return f.extNone
}

// nominalAnnotations is flow.AnnotationsAt at the nominal corner (index 0),
// failing the benchmark on an error.
func nominalAnnotations(b *testing.B, exts map[string]*flow.GateExtraction) sta.Annotations {
	b.Helper()
	ann, err := flow.AnnotationsAt(exts, 0)
	if err != nil {
		b.Fatal(err)
	}
	return ann
}

// printOnce emits a benchmark's table exactly once per process: the
// harness may re-invoke fast benchmarks with growing b.N, and every
// invocation restarts its loop at i == 0.
var printGuards sync.Map

func printOnce(b *testing.B, i int, fn func()) {
	if i != 0 {
		return
	}
	once, _ := printGuards.LoadOrStore(b.Name(), &sync.Once{})
	once.(*sync.Once).Do(fn)
}

var stdout = os.Stdout
