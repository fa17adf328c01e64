package flow

import (
	"bytes"
	"runtime"
	"testing"

	"postopc/internal/netlist"
	"postopc/internal/obs"
	"postopc/internal/sta"
)

// TestRunObsDeterminism is the telemetry hard requirement: attaching a live
// Sink must not perturb a single reported bit, at any worker count, with or
// without the cache — telemetry is write-only. The baseline is the plain
// uninstrumented run.
func TestRunObsDeterminism(t *testing.T) {
	design := netlist.InverterChain(8)
	opts := func(workers int) RunOptions {
		return RunOptions{
			STA:     sta.DefaultConfig(1500),
			Mode:    OPCModel,
			Workers: workers,
		}
	}
	base := newFastFlow(t)
	res, err := base.Run(design, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	want := renderRun(res)

	for _, cached := range []bool{false, true} {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			f := newFastFlow(t)
			if cached {
				f.EnableCache(0)
			}
			sink := obs.NewSink()
			f.EnableObs(sink)
			res, err := f.Run(design, opts(workers))
			if err != nil {
				t.Fatalf("cached=%v workers=%d: %v", cached, workers, err)
			}
			if got := renderRun(res); got != want {
				t.Fatalf("cached=%v workers=%d: instrumented run rendered differently:\n--- want ---\n%s--- got ---\n%s",
					cached, workers, want, got)
			}
		}
	}

	// The run-ledger extension of the same contract: a journal must not
	// perturb a bit either, across the worker × batch × cache grid.
	for _, cached := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			for _, batch := range []int{0, 3} {
				f := newFastFlow(t)
				if cached {
					f.EnableCache(0)
				}
				sink := obs.NewSink().WithJournal(0)
				f.EnableObs(sink)
				o := opts(workers)
				o.Batch = batch
				res, err := f.Run(design, o)
				if err != nil {
					t.Fatalf("ledger cached=%v workers=%d batch=%d: %v", cached, workers, batch, err)
				}
				if got := renderRun(res); got != want {
					t.Fatalf("ledger cached=%v workers=%d batch=%d: ledger-on run rendered differently:\n--- want ---\n%s--- got ---\n%s",
						cached, workers, batch, want, got)
				}
			}
		}
	}
}

// TestRunLedgerCoverage: with a journal attached, every extracted window
// lands in the written ledger with a signature, a cache classification
// consistent with the store's own counters, per-stage latencies on the
// computed windows, run-shape manifest fields, and exact per-stage
// percentile lines.
func TestRunLedgerCoverage(t *testing.T) {
	f := newFastFlow(t).EnableCache(0)
	sink := obs.NewSink().WithJournal(3)
	f.EnableObs(sink)
	res, err := f.Run(netlist.InverterChain(8), RunOptions{
		STA:     sta.DefaultConfig(1500),
		Mode:    OPCModel,
		Workers: 2,
		Batch:   3,
	})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := sink.WriteLedger(&buf); err != nil {
		t.Fatal(err)
	}
	led, err := obs.ReadLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if len(led.Windows) != len(res.Tagged) {
		t.Fatalf("ledger has %d windows for %d extracted gates", len(led.Windows), len(res.Tagged))
	}
	classes := map[string]int{}
	for _, w := range led.Windows {
		if w.Kind != "window" {
			t.Errorf("window %d: kind %q", w.Index, w.Kind)
		}
		if w.Sig == "" {
			t.Errorf("window %d has no signature", w.Index)
		}
		if w.Batch < 0 {
			t.Errorf("batched run: window %d carries batch %d", w.Index, w.Batch)
		}
		if w.Class == "miss" && w.Total <= 0 {
			t.Errorf("computed window %d has no stage latencies", w.Index)
		}
		classes[w.Class]++
	}
	// Leadership is claimed atomically, so miss counts must agree exactly;
	// the hit/wait split can shift between the store's Reserve-time view
	// and the record's later Ready check, so only their sum is pinned.
	stats := f.CacheStats()
	if classes["miss"] != int(stats.Misses) {
		t.Errorf("ledger classified %d misses, cache counted %d", classes["miss"], stats.Misses)
	}
	if classes["hit"]+classes["wait"] != int(stats.Hits+stats.Waits) {
		t.Errorf("ledger classified %d hits+waits, cache counted %d",
			classes["hit"]+classes["wait"], stats.Hits+stats.Waits)
	}

	for _, k := range []string{
		"flow.extract.mode", "flow.extract.workers", "flow.extract.batch",
		"flow.extract.gates", "flow.cache.entries", "flow.env.model",
	} {
		if led.Fields[k] == "" {
			t.Errorf("manifest field %q missing (fields %v)", k, led.Fields)
		}
	}

	stages := map[string]bool{}
	for _, s := range led.Stages {
		stages[s.Stage] = true
	}
	for _, s := range []string{"clip", "canonicalize", "opc", "image", "contour", "profile"} {
		if !stages[s] {
			t.Errorf("no exact percentile line for stage %q", s)
		}
	}
	if len(led.Exemplars) == 0 {
		t.Error("ledger has no slowest-window exemplars")
	}
}

// TestRunObsCoverage: one instrumented run must trace every pipeline stage
// and populate the cross-package metric families the exporter promises.
func TestRunObsCoverage(t *testing.T) {
	f := newFastFlow(t).EnableCache(0)
	sink := obs.NewSink()
	f.EnableObs(sink)
	if _, err := f.Run(netlist.InverterChain(8), RunOptions{
		STA:     sta.DefaultConfig(1500),
		Mode:    OPCModel,
		Workers: 2,
	}); err != nil {
		t.Fatal(err)
	}

	spans := map[string]bool{}
	for _, ev := range sink.Trace.Events() {
		spans[ev.Name] = true
	}
	for _, name := range []string{
		"flow.run", "flow.extract",
		"stage.clip", "stage.canonicalize", "stage.opc",
		"stage.image", "stage.contour", "stage.profile",
	} {
		if !spans[name] {
			t.Errorf("trace missing span %q (got %v)", name, spans)
		}
	}

	snap := sink.Metrics.Snapshot()
	counters := map[string]uint64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	for _, name := range []string{
		"cache.misses_total", "par.items_total", "sta.analyses_total",
		"litho.pool_borrows_total", "litho.pool_returns_total",
	} {
		if counters[name] == 0 {
			t.Errorf("counter %q not populated (counters %v)", name, counters)
		}
	}
	if counters["litho.pool_borrows_total"] != counters["litho.pool_returns_total"] {
		t.Errorf("scratch pool unbalanced: %d borrows vs %d returns",
			counters["litho.pool_borrows_total"], counters["litho.pool_returns_total"])
	}
	hists := map[string]uint64{}
	for _, h := range snap.Histograms {
		hists[h.Name] = h.Count
	}
	for _, name := range []string{
		"flow.stage.clip_ns", "flow.stage.canonicalize_ns", "flow.stage.opc_ns",
		"flow.stage.image_ns", "flow.stage.contour_ns", "flow.stage.profile_ns",
		"cache.lookup_ns",
	} {
		if hists[name] == 0 {
			t.Errorf("histogram %q recorded no observations", name)
		}
	}
}
