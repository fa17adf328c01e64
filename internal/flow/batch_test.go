package flow

// Determinism matrix for the window path (batch.go): extraction and ORC
// must reproduce pinned SHA-256 goldens at every combination of worker
// count, batch size and cache state. The goldens were recorded from the
// per-window fork-join that the window path replaced, so they pin every
// batch size to the historical per-window results. Run with -race to
// exercise the path's synchronization (see `make check`).

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"postopc/internal/geom"
	"postopc/internal/litho"
	"postopc/internal/netlist"
	"postopc/internal/obs"
	"postopc/internal/place"
)

// Golden SHA-256 digests of the rendered flow outputs (see
// renderExtractions and renderORC). A mismatch means a change moved a
// float somewhere between clipping and the rendered report.
const (
	// goldenExtractSHA pins ExtractGates of InverterChain(8), model OPC,
	// nominal corner, fast model.
	goldenExtractSHA = "12e1a56a805853ef6991b6244348c777b202d14aa0e5fc7becef6efd621bf613"
	// goldenORCSHA pins VerifyChip of InverterChain(4) under an overdose
	// corner and nominal, no OPC, 3000nm tiles (overdosedORCOptions).
	goldenORCSHA = "5a4b11015d4f353875871e8f3c8f41306ac9cc1ddb4d2fb433ad329b4fb37c26"
)

// renderExtractions serializes ExtractGates output by gate name; %v
// prints every float in its shortest exact form, so two outputs render
// equal iff they agree bit-for-bit (NaN payloads aside).
func renderExtractions(exts map[string]*GateExtraction) string {
	names := make([]string, 0, len(exts))
	for n := range exts {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s %+v\n", n, *exts[n])
	}
	return b.String()
}

// renderORC serializes an ORC report, hotspot order included.
func renderORC(rep *ORCReport) string { return fmt.Sprintf("%+v", *rep) }

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// overdosedORCOptions is the ORC fixture of the golden: a 1.8× dose
// pinches every gate, and 3000nm tiles split the small chip in two.
func overdosedORCOptions() ORCOptions {
	return ORCOptions{
		Corners: []litho.Corner{{DefocusNM: 0, Dose: 1.8}, litho.Nominal},
		Mode:    OPCNone,
		TileNM:  3000,
	}
}

// batchMatrix is the (workers, batch) sweep of the determinism tests.
// Batch sizes 0 and 1 both run one window per batch.
func batchMatrix() (workers, sizes []int) {
	return []int{1, 2, runtime.GOMAXPROCS(0)}, []int{1, 2, 3, 16}
}

// TestExtractGatesBatchedMatchesPerWindow pins extraction to the golden
// recorded from the per-window path, at any worker count and batch size,
// cache on and off.
func TestExtractGatesBatchedMatchesPerWindow(t *testing.T) {
	f0 := fastFlow(t)
	pl, err := f0.Place(netlist.InverterChain(8), place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	workers, sizes := batchMatrix()
	for _, cached := range []bool{false, true} {
		f := fastFlow(t)
		if cached {
			f = newFastFlow(t).EnableCache(0)
		}
		for _, w := range workers {
			for _, size := range sizes {
				got, err := f.ExtractGates(pl.Chip, nil, ExtractOptions{Mode: OPCModel, Workers: w, Batch: size})
				if err != nil {
					t.Fatalf("cached=%v workers=%d batch=%d: %v", cached, w, size, err)
				}
				if sum := sha256Hex(renderExtractions(got)); sum != goldenExtractSHA {
					t.Fatalf("cached=%v workers=%d batch=%d: extraction SHA-256 = %s, want %s",
						cached, w, size, sum, goldenExtractSHA)
				}
			}
		}
	}
}

// TestVerifyChipBatchedMatchesPerTile pins the ORC report, hotspot order
// included, to the golden recorded from the per-tile path at every matrix
// point.
func TestVerifyChipBatchedMatchesPerTile(t *testing.T) {
	f0 := fastFlow(t)
	pl, err := f0.Place(netlist.InverterChain(4), place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	workers, sizes := batchMatrix()
	for _, cached := range []bool{false, true} {
		f := fastFlow(t)
		if cached {
			f = newFastFlow(t).EnableCache(0)
		}
		for _, w := range workers {
			for _, size := range sizes {
				o := overdosedORCOptions()
				o.Workers, o.Batch = w, size
				got, err := f.VerifyChip(pl.Chip, o)
				if err != nil {
					t.Fatalf("cached=%v workers=%d batch=%d: %v", cached, w, size, err)
				}
				if len(got.Hotspots) == 0 || got.Tiles < 2 {
					t.Fatalf("fixture too weak: %d hotspots over %d tiles", len(got.Hotspots), got.Tiles)
				}
				if sum := sha256Hex(renderORC(got)); sum != goldenORCSHA {
					t.Fatalf("cached=%v workers=%d batch=%d: ORC SHA-256 = %s, want %s\n%s",
						cached, w, size, sum, goldenORCSHA, renderORC(got))
				}
			}
		}
	}
}

// TestBatchedCacheSingleFlight checks that batching keeps the cache
// single-flight: however many workers race over a batched run, each unique
// window signature is computed exactly once (the serial run's miss count),
// and a second pass recomputes nothing.
func TestBatchedCacheSingleFlight(t *testing.T) {
	design := netlist.InverterChain(8)
	serial := newFastFlow(t).EnableCache(0)
	pl, err := serial.Place(design, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serial.ExtractGates(pl.Chip, nil, ExtractOptions{Mode: OPCModel, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	unique := serial.CacheStats().Misses
	if unique == 0 {
		t.Fatal("fixture broken: serial cached run missed nothing")
	}
	workers, sizes := batchMatrix()
	for _, w := range workers {
		for _, size := range sizes {
			f := newFastFlow(t).EnableCache(0)
			opt := ExtractOptions{Mode: OPCModel, Workers: w, Batch: size}
			if _, err := f.ExtractGates(pl.Chip, nil, opt); err != nil {
				t.Fatal(err)
			}
			st := f.CacheStats()
			if st.Misses != unique {
				t.Fatalf("workers=%d batch=%d: %d misses, want %d (single-flight violated)",
					w, size, st.Misses, unique)
			}
			if _, err := f.ExtractGates(pl.Chip, nil, opt); err != nil {
				t.Fatal(err)
			}
			if st := f.CacheStats(); st.Misses != unique {
				t.Fatalf("workers=%d batch=%d: second pass recomputed (%d misses, want %d)",
					w, size, st.Misses, unique)
			}
		}
	}
}

// TestBatchedPipelinePoolBalance runs batched extraction and ORC with the
// litho scratch pools instrumented and asserts every borrow was returned:
// the batched image stage hands rasters and kernel scratch back.
func TestBatchedPipelinePoolBalance(t *testing.T) {
	sink := obs.NewSink()
	litho.InstrumentPools(sink)
	defer litho.InstrumentPools(nil)

	f := newFastFlow(t).EnableCache(0)
	f.Obs = sink
	pl, err := f.Place(netlist.InverterChain(6), place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt := ExtractOptions{Mode: OPCModel, Workers: 2, Batch: 3}
	if _, err := f.ExtractGates(pl.Chip, nil, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := f.VerifyChip(pl.Chip, ORCOptions{
		Corners: []litho.Corner{{DefocusNM: 0, Dose: 1.8}},
		TileNM:  3000,
		Workers: 2,
		Batch:   3,
	}); err != nil {
		t.Fatal(err)
	}
	borrows := sink.Counter("litho.pool_borrows_total").Value()
	returns := sink.Counter("litho.pool_returns_total").Value()
	if borrows == 0 {
		t.Fatal("pools saw no traffic: instrumentation or batching broken")
	}
	if borrows != returns {
		t.Fatalf("pool borrow/return imbalance under batching: %d borrowed, %d returned",
			borrows, returns)
	}
}

// TestBatchedErrorParity: a batch member that fails before imaging
// surfaces the same error, and the same lowest-index-wins choice, at every
// worker count and batch size.
func TestBatchedErrorParity(t *testing.T) {
	f := fastFlow(t)
	pl, err := f.Place(netlist.InverterChain(4), place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An instance without gate sites (a fill/tap cell) fails exactly one
	// window.
	var bad string
	for i := range pl.Chip.Instances {
		if in := &pl.Chip.Instances[i]; len(in.Cell.Gates) == 0 {
			bad = in.Name
			break
		}
	}
	if bad == "" {
		t.Skip("no gateless instance on the fixture chip")
	}
	names := []string{"u1", bad, "u2"}
	_, wantErr := f.ExtractGates(pl.Chip, names, ExtractOptions{Mode: OPCNone, Workers: 1})
	if wantErr == nil {
		t.Fatal("a gateless instance was accepted")
	}
	if want := "flow: instance " + bad + " has no gate sites"; wantErr.Error() != want {
		t.Fatalf("error = %q, want %q", wantErr, want)
	}
	workers, sizes := batchMatrix()
	for _, w := range workers {
		for _, size := range sizes {
			_, gotErr := f.ExtractGates(pl.Chip, names, ExtractOptions{Mode: OPCNone, Workers: w, Batch: size})
			if gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("workers=%d batch=%d: error = %v, want %v", w, size, gotErr, wantErr)
			}
		}
	}
}

// failingBatchModel is a litho.BatchModel that fails on the masks bad
// selects: its batch call fails as a whole when any member is bad, and its
// per-mask series fails on exactly the bad masks. The batched image stage
// must fall back to imaging each mask alone so that every window keeps
// its own error.
type failingBatchModel struct {
	litho.Model
	bad func(*geom.Raster) bool
}

var errBadMask = errors.New("bad mask")

func (m failingBatchModel) AerialSeries(mask *geom.Raster, corners []litho.Corner) ([]*litho.Image, error) {
	if m.bad(mask) {
		return nil, errBadMask
	}
	return m.Model.AerialSeries(mask, corners)
}

func (m failingBatchModel) AerialBatch(masks []*geom.Raster, corners []litho.Corner) ([][]*litho.Image, error) {
	out := make([][]*litho.Image, len(masks))
	for i, mask := range masks {
		imgs, err := m.AerialSeries(mask, corners)
		if err != nil {
			return nil, fmt.Errorf("batch of %d masks: %w", len(masks), err)
		}
		out[i] = imgs
	}
	return out, nil
}

// TestImageBatchFallbackCounted: when AerialBatch fails on one mask, each
// window is imaged again on its own, the fallback is counted, and
// ExtractGates returns the same error at batch sizes 1, 3 and 16.
func TestImageBatchFallbackCounted(t *testing.T) {
	f0 := fastFlow(t)
	pl, err := f0.Place(netlist.RippleCarryAdder(2), place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A serial recording pass finds the widest mask; only windows of that
	// width fail below.
	widest := 0
	f := newFastFlow(t)
	f.VerifySim = failingBatchModel{Model: f.VerifySim, bad: func(m *geom.Raster) bool {
		widest = max(widest, m.Nx)
		return false
	}}
	exts, err := f.ExtractGates(pl.Chip, nil, ExtractOptions{Mode: OPCNone, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) < 4 || widest == 0 {
		t.Fatalf("fixture too small: %d gates, widest mask %d px", len(exts), widest)
	}
	var want string
	for _, size := range []int{1, 3, 16} {
		f := newFastFlow(t)
		f.VerifySim = failingBatchModel{Model: f.VerifySim, bad: func(m *geom.Raster) bool { return m.Nx == widest }}
		sink := obs.NewSink()
		f.EnableObs(sink)
		_, err := f.ExtractGates(pl.Chip, nil, ExtractOptions{Mode: OPCNone, Workers: 2, Batch: size})
		if !errors.Is(err, errBadMask) {
			t.Fatalf("batch=%d: error = %v, want %v", size, err, errBadMask)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("batch=%d: error = %q, want %q (as at batch 1)", size, err, want)
		}
		if sink.Counter("flow.image_batch_fallbacks_total").Value() == 0 {
			t.Fatalf("batch=%d: the failed batch call was not counted", size)
		}
	}
}
