package opc

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"postopc/internal/geom"
	"postopc/internal/litho"
	"postopc/internal/pdk"
)

// polyStrip is a gate-window-sized strip of poly: nine 90 nm lines at a
// 250 nm pitch, 2 µm long, the grating of litho's strip-window fixtures.
// With the PDK's 400 nm guard band its simulations run on a 289×280 px
// raster, so one image's Data is 0.65 MB, and OPC does not converge on it
// within 16 iterations.
func polyStrip() []geom.Polygon {
	la := litho.LineArray{WidthNM: 90, PitchNM: 250, Count: 9, LengthNM: 2000}
	var out []geom.Polygon
	for _, r := range la.Rects() {
		out = append(out, r.Polygon())
	}
	return out
}

func fastModel(tb testing.TB) litho.Model {
	tb.Helper()
	m, err := pdk.N90().FastModel()
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// A line too narrow to print has no printed edge for any of its fragments
// to find: every one is counted in NoEdge and saturates at −searchNM. A
// line that prints finds an edge everywhere. Neither converges, because
// their line ends stay short at the bias clamp.
func TestModelBasedCountsNoEdge(t *testing.T) {
	m := gaussModel(t)
	opt := DefaultOptions()
	opt.Iterations = 1
	res, err := ModelBased(m, []geom.Polygon{geom.R(-10, -400, 10, 400).Polygon()}, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.NoEdge == 0 || res.NoEdge != len(res.FinalEPE) {
		t.Fatalf("NoEdge = %d of %d fragments, want all", res.NoEdge, len(res.FinalEPE))
	}
	for i, e := range res.FinalEPE {
		if e != -float64(searchNM) {
			t.Fatalf("fragment %d: EPE %g, want the saturated %d", i, e, -searchNM)
		}
	}
	if res.Converged {
		t.Fatal("a line that never prints reported convergence")
	}
	res, err = ModelBased(m, []geom.Polygon{geom.R(-65, -400, 65, 400).Polygon()}, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.NoEdge != 0 {
		t.Fatalf("printed line: NoEdge = %d of %d fragments, want 0", res.NoEdge, len(res.FinalEPE))
	}
	if res.Converged || res.Iterations != defaultIterations {
		t.Fatalf("printed line: converged %v after %d iterations, want all %d without convergence",
			res.Converged, res.Iterations, defaultIterations)
	}
}

// Converged reports the early exit: on a dense grating with no line ends
// in the window the loop stops before its last iteration.
func TestModelBasedConverged(t *testing.T) {
	m := gaussModel(t)
	la := litho.LineArray{WidthNM: 90, PitchNM: 340, Count: 5, LengthNM: 90 * 14}
	var drawn []geom.Polygon
	for _, r := range la.Rects() {
		drawn = append(drawn, r.Polygon())
	}
	opt := DefaultOptions()
	opt.Iterations = 20
	res, err := ModelBased(m, drawn, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations >= opt.Iterations {
		t.Fatalf("converged %v after %d of %d iterations, want an early exit",
			res.Converged, res.Iterations, opt.Iterations)
	}
	if res.Sims != res.Iterations+1 {
		t.Fatalf("%d simulations for %d iterations, want one more for the final pass", res.Sims, res.Iterations)
	}
}

// The fragment classes count what the last iteration and the final pass
// left. A lone line has no neighbour to pull its fragments back, so
// Moving is the number of biases that one more iteration changes, and
// Within and Clamped match FinalEPE and the final biases: a 130 nm line
// after 8 iterations, with some fragments moving and some within 1 nm,
// and a 20 nm line after 5, whose fragments at the bias clamp still push
// outward, a move the clamp cancels, so they do not count as moving. Two
// lines too thin to print, 130 nm apart, each push every fragment out by
// 12 nm in their first iteration, which leaves 106 nm between the facing
// edges, so the space rule pulls back exactly the fragments of those two
// edges.
func TestModelBasedFragmentClasses(t *testing.T) {
	m := gaussModel(t)
	var shown [3]bool // some moving, some within, some clamped, each short of all
	for _, tc := range []struct {
		width geom.Coord
		iters int
	}{{130, 8}, {20, 5}} {
		line := []geom.Polygon{geom.R(-tc.width/2, -400, tc.width/2, 400).Polygon()}
		opt := DefaultOptions()
		opt.Iterations = tc.iters - 1
		prev, err := ModelBased(m, line, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Iterations = tc.iters
		res, err := ModelBased(m, line, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		var moved, within, clamped int
		for i, f := range res.Fragmented[0].Frags {
			if f.Bias != prev.Fragmented[0].Frags[i].Bias {
				moved++
			}
			if f.Bias == maxBiasNM || f.Bias == -maxBiasNM {
				clamped++
			}
		}
		for _, e := range res.FinalEPE {
			if math.Abs(e) < 1 {
				within++
			}
		}
		if res.Moving != moved || res.PulledBack != 0 || res.Within != within || res.Clamped != clamped {
			t.Fatalf("%d nm line: moving %d, pulled back %d, within %d, clamped %d; want %d, 0, %d, %d",
				tc.width, res.Moving, res.PulledBack, res.Within, res.Clamped, moved, within, clamped)
		}
		n := len(res.FinalEPE)
		for k, c := range []int{moved, within, clamped} {
			shown[k] = shown[k] || c > 0 && c < n
		}
	}
	if shown != [3]bool{true, true, true} {
		t.Fatalf("partial moving, within and clamped counts shown: %v; the cases show too little", shown)
	}
	pair := []geom.Polygon{geom.R(-10, -400, 10, 400).Polygon(), geom.R(140, -400, 160, 400).Polygon()}
	opt := DefaultOptions()
	opt.Iterations = 1
	res, err := ModelBased(m, pair, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	facing := 0
	for i, fp := range res.Fragmented {
		for _, f := range fp.Frags {
			if f.Normal == geom.Pt(1-2*geom.Coord(i), 0) {
				facing++
			}
		}
	}
	if n := len(res.FinalEPE); res.Moving != n || res.PulledBack != facing || res.Clamped != 0 {
		t.Fatalf("thin pair: moving %d, pulled back %d, clamped %d of %d fragments; want all, the %d facing ones, 0",
			res.Moving, res.PulledBack, res.Clamped, n, facing)
	}
}

// The OPC loop hands its rasters and images back, so what a ModelBased
// call allocates does not grow with its iterations: on a warm pool, each
// iteration past the fourth adds less than a quarter of one image's Data
// (about 0.1 MB of corrected polygons and their regions, against 1.3 MB of
// raster and image per iteration before recycling). Garbage collection is
// off while counting, so that the raster pool keeps what it holds, and
// each count is the least of three calls: a sync.Pool cannot hand a raster
// put on one P to a Get on another P, so a call whose goroutine changed P
// rasterizes once into a new raster.
func TestModelBasedAllocsFlatInIterations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random; the bound is asserted in the non-race run")
	}
	m := fastModel(t)
	drawn := polyStrip()
	r := m.Recipe()
	ra := litho.RasterizePolygons(drawn, r.PixelNM, r.GuardNM)
	imageBytes := float64(8 * ra.Nx * ra.Ny)
	litho.RecycleRaster(ra)
	run := func(iters int) uint64 {
		opt := DefaultOptions()
		opt.Iterations = iters
		least := uint64(math.MaxUint64)
		for k := 0; k < 3; k++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := ModelBased(m, drawn, nil, opt)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations != iters {
				t.Fatalf("ran %d of %d iterations: the window converged, so extra iterations cost nothing", res.Iterations, iters)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	run(4) // warm the pools
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b4, b16 := run(4), run(16)
	perIter := (float64(b16) - float64(b4)) / 12
	if perIter >= imageBytes/4 {
		t.Fatalf("each extra iteration allocated %.0f B (%d B at 4 iterations, %d at 16), want under a quarter of one image's %.0f B",
			perIter, b4, b16, imageBytes)
	}
	t.Logf("%.0f B per extra iteration; one image's Data is %.0f B", perIter, imageBytes)
}

// BenchmarkModelBasedOPC times one model-based OPC call as the flow makes
// it: the PDK's dual-Gaussian fast model, default options, on polyStrip.
// Run with -benchmem to see what the loop allocates.
func BenchmarkModelBasedOPC(b *testing.B) {
	m := fastModel(b)
	drawn := polyStrip()
	if _, err := ModelBased(m, drawn, nil, DefaultOptions()); err != nil { // warm the pools
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ModelBased(m, drawn, nil, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
