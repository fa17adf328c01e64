package flow

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"postopc/internal/obs"
	"postopc/internal/sta"
)

func TestPercentileInterpolates(t *testing.T) {
	// 0..100: the p-quantile of this grid is exactly 100p.
	grid := MCResult{}
	for i := 0; i <= 100; i++ {
		grid.WNS = append(grid.WNS, float64(i))
	}
	cases := []struct {
		name string
		m    MCResult
		p    float64
		want float64
	}{
		{"midpoint of two", MCResult{WNS: []float64{10, 20}}, 0.5, 15},
		{"grid p50", grid, 0.50, 50},
		{"grid p25", grid, 0.25, 25},
		{"grid p10", grid, 0.10, 10},
		{"grid p1", grid, 0.01, 1},
		{"fractional rank", MCResult{WNS: []float64{1, 2, 3, 4}}, 0.5, 2.5},
		{"between samples", MCResult{WNS: []float64{0, 10, 20, 30}}, 0.4, 12},
		{"p0 is min", MCResult{WNS: []float64{3, 7, 9}}, 0, 3},
		{"p1 is max", MCResult{WNS: []float64{3, 7, 9}}, 1, 9},
		{"clamp below", MCResult{WNS: []float64{3, 7}}, -0.5, 3},
		{"clamp above", MCResult{WNS: []float64{3, 7}}, 1.5, 7},
		{"single sample", MCResult{WNS: []float64{42}}, 0.3, 42},
	}
	for _, c := range cases {
		if got := c.m.Percentile(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: Percentile(%g) = %g, want %g", c.name, c.p, got, c.want)
		}
	}
	if got := (MCResult{}).Percentile(0.5); !math.IsNaN(got) {
		t.Errorf("empty Percentile = %g, want NaN", got)
	}
}

func TestPercentileNotTruncationBiased(t *testing.T) {
	// The old int(p·(n−1)) truncation mapped p=0.5 of {1,2,3,4} to the
	// second order statistic (2); interpolation must give 2.5.
	m := MCResult{WNS: []float64{1, 2, 3, 4}}
	if got := m.Percentile(0.5); got != 2.5 {
		t.Fatalf("median of {1,2,3,4} = %g, want 2.5", got)
	}
}

// goldenMonteCarloSHA pins the serial run of
// TestMonteCarloParallelMatchesSerial (48 samples, seed 7, on the fullRun
// fixture): the bits of the sorted WNS and Leak samples, MeanWNS and
// StdWNS. It holds at every GOAMD64 level CI runs (v1 and v3).
const goldenMonteCarloSHA = "dcc41ffa90df0bca6a13b1d4155de11f8761e37700d04f555f57d4a3862e3c47"

func renderMCBits(mc MCResult) string {
	var b strings.Builder
	for i := range mc.WNS {
		fmt.Fprintf(&b, "%016x %016x\n", math.Float64bits(mc.WNS[i]), math.Float64bits(mc.Leak[i]))
	}
	fmt.Fprintf(&b, "mean %016x std %016x\n", math.Float64bits(mc.MeanWNS), math.Float64bits(mc.StdWNS))
	return b.String()
}

func TestMonteCarloParallelMatchesSerial(t *testing.T) {
	res := fullRun(t)
	f := fastFlow(t)
	vm, err := BuildVariationModel(res.Extractions, f.PDK.Window, f.PDK.Device.SigmaLRandomNM)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sta.DefaultConfig(1500)
	serial, err := vm.MonteCarloWorkers(res.Graph, cfg, 48, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(renderMCBits(serial)); got != goldenMonteCarloSHA {
		t.Fatalf("serial Monte Carlo digest %s, want %s", got, goldenMonteCarloSHA)
	}
	for _, workers := range []int{0, 2, 5} {
		parallel, err := vm.MonteCarloWorkers(res.Graph, cfg, 48, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d: parallel Monte Carlo diverged from serial:\nserial   %+v\nparallel %+v",
				workers, serial, parallel)
		}
	}
	// The default entry point is the same computation.
	def, err := vm.MonteCarlo(res.Graph, cfg, 48, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, def) {
		t.Fatal("MonteCarlo diverged from MonteCarloWorkers with equal seed")
	}
}

func TestMonteCarloNoSamples(t *testing.T) {
	res := fullRun(t)
	f := fastFlow(t)
	vm, err := BuildVariationModel(res.Extractions, f.PDK.Window, f.PDK.Device.SigmaLRandomNM)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := vm.MonteCarlo(res.Graph, sta.DefaultConfig(1500), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.WNS) != 0 || len(mc.Leak) != 0 {
		t.Fatalf("zero-sample MC returned data: %+v", mc)
	}
}

// TestMonteCarloRunsIncrementally checks on an instrumented graph that
// Monte Carlo runs one full analysis, its nominal baseline, and one
// incremental analysis per sample, none of which falls back to a full one.
func TestMonteCarloRunsIncrementally(t *testing.T) {
	res := fullRun(t)
	f := fastFlow(t)
	vm, err := BuildVariationModel(res.Extractions, f.PDK.Window, f.PDK.Device.SigmaLRandomNM)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sta.Build(res.Netlist, f.Lib, f.TL)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewSink()
	g.Instrument(sink)
	vm.Obs = sink
	const samples = 24
	if _, err := vm.MonteCarloWorkers(g, sta.DefaultConfig(1500), samples, 3, 0); err != nil {
		t.Fatal(err)
	}
	counters := map[string]uint64{}
	for _, c := range sink.Metrics.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	for name, want := range map[string]uint64{
		"sta.mc_samples_total":            samples,
		"sta.analyses_total":              1,
		"sta.incremental_analyses_total":  samples,
		"sta.incremental_fallbacks_total": 0,
	} {
		if counters[name] != want {
			t.Errorf("%s = %d, want %d", name, counters[name], want)
		}
	}
}

// TestMonteCarloAllocsFlatInSamples checks that a Monte Carlo sample
// allocates nothing once its worker has run one: the worker's annotation
// set, site lengths and generator are built once and overwritten per
// sample, so on one worker 64 samples make as many allocations as 16.
func TestMonteCarloAllocsFlatInSamples(t *testing.T) {
	res := fullRun(t)
	f := fastFlow(t)
	vm, err := BuildVariationModel(res.Extractions, f.PDK.Window, f.PDK.Device.SigmaLRandomNM)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sta.DefaultConfig(1500)
	run := func(samples int) func() {
		return func() {
			if _, err := vm.MonteCarloWorkers(res.Graph, cfg, samples, 7, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(1)() // warm-up: the cells' shared views
	a16, a64 := testing.AllocsPerRun(5, run(16)), testing.AllocsPerRun(5, run(64))
	t.Logf("allocations per MonteCarloWorkers call: %v (16 samples), %v (64 samples)", a16, a64)
	if a64 != a16 {
		t.Fatalf("48 more samples on one worker allocated: %v -> %v", a16, a64)
	}
}
