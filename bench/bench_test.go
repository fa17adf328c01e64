package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"postopc/internal/flow"
	"postopc/internal/obs"
)

// Smoke-scale instances of the three workloads: the same code paths as the
// benchmark's sizes, small enough for the test suite.
func smokeWorkloads() map[string]workload {
	return map[string]workload{
		"signoff_abbe": &signoffAbbe{chains: 4, depth: 3, tagTopK: 1, samples: 20,
			grid: flow.MultiCornerSTAOptions{DefocusSteps: 1, DoseSteps: 1, GuardbandKSigma: 3}},
		"fullchip_strip": &fullchipStrip{chains: 4, depth: 1, rowNM: 2380, tileNM: 5200, batch: 4},
		"timing_mc": &timingMC{chains: 8, depth: 4, samples: 40,
			grid: flow.MultiCornerSTAOptions{DefocusSteps: 1, DoseSteps: 1, GuardbandKSigma: 3}},
	}
}

// TestWorkloadsSmoke runs each workload at smoke scale through the runner
// on two designs: one timed op per design, the reference op and a traced op
// must each digest equal to their design's first op, pass their
// invariants, and report exactly the metrics BENCHMARK.json names.
func TestWorkloadsSmoke(t *testing.T) {
	spec := readSpec(t)
	for name, w := range smokeWorkloads() {
		t.Run(name, func(t *testing.T) {
			rep, err := runWorkload(w, runOptions{seed: 3, trace: true, designs: 2})
			if err != nil {
				t.Fatal(err)
			}
			if rep.attempted != 4 || rep.failed != 0 || len(rep.traced) != 1 {
				t.Fatalf("attempted %d, failed %d, traced %d; failures: %v", rep.attempted, rep.failed, len(rep.traced), rep.failures)
			}
			for _, trace := range []bool{false, true} {
				want := spec.names(trace)
				got := keys(rep.metrics(trace))
				if !equal(got, want) {
					t.Errorf("trace=%v: metrics %v, BENCHMARK.json names %v", trace, got, want)
				}
			}
		})
	}
}

// TestDecoratorsPassThrough checks that the timing decorators change
// neither results nor cache traffic, and that the batched pipeline still
// reaches the verification model's batch entry point through them.
func TestDecoratorsPassThrough(t *testing.T) {
	d, _, err := smokeWorkloads()["fullchip_strip"].setup(5)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := d.op(&opCtx{})
	if err != nil {
		t.Fatal(err)
	}
	o := &opCtx{sink: obs.NewSink(), clocks: &clocks{}}
	traced, err := d.op(o)
	if err != nil {
		t.Fatal(err)
	}
	if plain.digest != traced.digest {
		t.Errorf("digest %s untraced, %s traced", plain.digest, traced.digest)
	}
	if plain.cache.Misses != traced.cache.Misses || plain.cache.Lookups() != traced.cache.Lookups() {
		t.Errorf("cache traffic %+v untraced, %+v traced", plain.cache, traced.cache)
	}
	v := &o.clocks.verify
	if v.calls.Load() == 0 || v.items.Load() <= v.calls.Load() {
		t.Errorf("verify decorator saw %d calls over %d masks; want batched calls", v.calls.Load(), v.items.Load())
	}
	if o.clocks.opcSim.calls.Load() == 0 || o.clocks.device.calls.Load() == 0 {
		t.Errorf("OPC-simulation or device decorator saw no calls")
	}
}

// TestMedianQuartiles pins median and quartiles at n = 1..4 to Python's
// statistics.median and statistics.quantiles(xs, n=4), which raises for a
// single value where quartiles returns the value itself.
func TestMedianQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 1}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
	} {
		q1, q3 := quartiles(tc.xs)
		if m := median(tc.xs); m != tc.med || q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("%v: median %v q1 %v q3 %v, want %v %v %v", tc.xs, m, q1, q3, tc.med, tc.q1, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, tc := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", []float64{10, 10.1, 9.95, 10.05, 10}, "ok"},
		{"worse", []float64{12, 12.1, 11.9, 12, 12.05}, "worse"},
		{"better", []float64{8, 8.1, 7.9, 8, 8.05}, "ok"},
		{"noisy", []float64{8, 14, 10, 9, 12}, "unresolved"},
	} {
		if got := verdict(steady, tc.b, false, 0.1); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON checks names and units both ways.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	for _, c := range []struct {
		defs []metricDef
		spec []specMetric
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		units := map[string]string{}
		for _, m := range c.spec {
			units[m.Name] = m.Unit
		}
		if len(units) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", len(units), len(c.defs))
		}
		for _, d := range c.defs {
			if u, ok := units[d.name]; !ok || u != d.unit {
				t.Errorf("%s (%s): BENCHMARK.json has unit %q (listed: %v)", d.name, d.unit, u, ok)
			}
		}
	}
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type specFile struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func (s specFile) names(trace bool) []string {
	ms := s.EndToEnd
	if trace {
		ms = s.PerLayer
	}
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func readSpec(t *testing.T) specFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s specFile
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
