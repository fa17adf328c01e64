package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety: every handle resolved through a nil or empty Sink must be
// usable and do nothing — instrumented library code carries no
// conditionals, so the nil paths are load-bearing API.
func TestNilSafety(t *testing.T) {
	var s *Sink
	if s.Enabled() {
		t.Fatal("nil sink reports enabled")
	}
	c := s.Counter("x")
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Fatal("nil counter holds a value")
	}
	g := s.Gauge("x")
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge holds a value")
	}
	h := s.LatencyHistogram("x")
	h.Observe(1)
	h.ObserveSince(h.StartTimer())
	sp := s.Start("root")
	if sp.ID() != 0 {
		t.Fatal("disabled span has an identity")
	}
	sp.End()
	s.StartChild("child", sp.ID()).End()
	if (&Sink{}).Enabled() {
		t.Fatal("empty sink reports enabled")
	}
}

// TestRegistryConcurrency hammers one registry from concurrent writers —
// handle resolution and updates interleaved — and checks nothing is lost.
// Run under -race this also proves the hot paths are data-race free.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("shared.counter")
			h := reg.Histogram("shared.hist", []float64{10, 100, 1000})
			g := reg.Gauge("shared.gauge")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i))
				g.Set(float64(w))
			}
		}(w)
	}
	wg.Wait()
	s := reg.Snapshot()
	if got := s.Counters[0].Value; got != workers*perWorker {
		t.Fatalf("counter lost updates: got %d want %d", got, workers*perWorker)
	}
	if got := s.Histograms[0].Count; got != workers*perWorker {
		t.Fatalf("histogram lost observations: got %d want %d", got, workers*perWorker)
	}
	wantSum := float64(workers) * float64(perWorker*(perWorker-1)) / 2
	if s.Histograms[0].Sum != wantSum {
		t.Fatalf("histogram sum: got %g want %g", s.Histograms[0].Sum, wantSum)
	}
}

// TestSnapshotDeterministicOrder: snapshots must come out sorted by name
// regardless of the (schedule-dependent) registration order. Ten fresh
// registries populated from concurrent goroutines must all render the same
// order.
func TestSnapshotDeterministicOrder(t *testing.T) {
	names := []string{"zeta.z", "alpha.a", "mid.m", "beta.b", "omega.o"}
	var want []string
	for run := 0; run < 10; run++ {
		reg := NewRegistry()
		var wg sync.WaitGroup
		for _, n := range names {
			wg.Add(1)
			go func(n string) {
				defer wg.Done()
				reg.Counter(n).Inc()
				reg.Gauge(n).Set(1)
				reg.Histogram(n, []float64{10, 100, 1000}).Observe(1)
			}(n)
		}
		wg.Wait()
		s := reg.Snapshot()
		var got []string
		for _, c := range s.Counters {
			got = append(got, c.Name)
		}
		if !sort.StringsAreSorted(got) {
			t.Fatalf("run %d: counters not sorted: %v", run, got)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: snapshot order changed: %v vs %v", run, got, want)
		}
		for i := range s.Gauges {
			if s.Gauges[i].Name != want[i] || s.Histograms[i].Name != want[i] {
				t.Fatalf("run %d: gauge/histogram order diverges from counter order", run)
			}
		}
	}
}

// TestHistogramBucketBoundaries pins the edge semantics: bounds are upper
// edges, a sample equal to a bound lands in that bound's bucket, and
// anything past the last bound lands in the +Inf bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []float64{10, 100, 1000})
	for _, v := range []float64{0, 10, 10.5, 100, 1000, 1000.1, math.Inf(1)} {
		h.Observe(v)
	}
	s := reg.Snapshot()
	hv := s.Histograms[0]
	want := []uint64{2, 2, 1, 2} // {0,10} {10.5,100} {1000} {1000.1,+Inf}
	if !reflect.DeepEqual(hv.Counts, want) {
		t.Fatalf("bucket counts: got %v want %v", hv.Counts, want)
	}
	if hv.Count != 7 {
		t.Fatalf("count: got %d want 7", hv.Count)
	}
}

// TestHistogramReRegistration: same name + same bucket count returns the
// original handle; a different bucket count is a programming error and
// must panic rather than silently fork the series.
func TestHistogramReRegistration(t *testing.T) {
	reg := NewRegistry()
	bounds := []float64{10, 100, 1000}
	a := reg.Histogram("h", bounds)
	if b := reg.Histogram("h", bounds); a != b {
		t.Fatal("re-resolution returned a different handle")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched re-registration did not panic")
		}
	}()
	reg.Histogram("h", []float64{1, 2})
}

// TestChromeTraceRoundTrip writes a small trace and decodes it back
// through encoding/json, verifying the event fields, the µs time base and
// the parent linkage survive.
func TestChromeTraceRoundTrip(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("run", 0)
	child := tr.Start("stage", root.ID())
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Args struct {
				ID     uint64 `json:"id"`
				Parent uint64 `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// Two complete events plus metadata: one process_name, and a
	// thread_name + thread_sort_index pair per span-name lane.
	byName := map[string]int{}
	var xEvents, procMeta, threadMeta int
	laneFor := map[string]int{}
	for i, ev := range got.TraceEvents {
		switch ev.Ph {
		case "X":
			xEvents++
			if ev.Dur < 0 || ev.Ts < 0 {
				t.Fatalf("event %q: negative timestamp/duration", ev.Name)
			}
			byName[ev.Name] = i
		case "M":
			switch ev.Name {
			case "process_name":
				procMeta++
			case "thread_name":
				threadMeta++
			}
		default:
			t.Fatalf("event %q: unexpected ph %q", ev.Name, ev.Ph)
		}
	}
	if xEvents != 2 {
		t.Fatalf("got %d complete events, want 2", xEvents)
	}
	if procMeta != 1 || threadMeta != 2 {
		t.Fatalf("metadata events: %d process_name (want 1), %d thread_name (want 2)", procMeta, threadMeta)
	}
	// Lane naming: each X event's tid must carry a thread_name metadata
	// event naming its span, and distinct names get distinct lanes.
	var raw struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Tid  int             `json:"tid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, ev := range raw.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			var a struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(ev.Args, &a); err != nil {
				t.Fatal(err)
			}
			laneFor[a.Name] = ev.Tid
		}
	}
	for _, ev := range raw.TraceEvents {
		if ev.Ph == "X" && laneFor[ev.Name] != ev.Tid {
			t.Fatalf("span %q on tid %d, but its thread_name lane is %d", ev.Name, ev.Tid, laneFor[ev.Name])
		}
	}
	if laneFor["run"] == laneFor["stage"] {
		t.Fatal("distinct span names share a lane")
	}
	runEv := got.TraceEvents[byName["run"]]
	stageEv := got.TraceEvents[byName["stage"]]
	if stageEv.Args.Parent != runEv.Args.ID {
		t.Fatalf("stage parent %d != run id %d", stageEv.Args.Parent, runEv.Args.ID)
	}
	if runEv.Args.Parent != 0 {
		t.Fatalf("root has parent %d", runEv.Args.Parent)
	}
	if got.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", got.DisplayTimeUnit)
	}
}

// TestTracerEventsOrdered: Events sorts by start time with ID tiebreak, so
// exports are stable for a given recording even though spans complete (and
// append) in arbitrary order.
func TestTracerEventsOrdered(t *testing.T) {
	tr := NewTracer()
	a := tr.Start("a", 0)
	b := tr.Start("b", 0)
	b.End() // b completes first but started second (or same tick)
	a.End()
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Start < evs[i-1].Start ||
			(evs[i].Start == evs[i-1].Start && evs[i].ID < evs[i-1].ID) {
			t.Fatalf("events out of order at %d: %+v", i, evs)
		}
	}
}

// TestWritePrometheus checks the exposition basics a scraper depends on:
// the build-info gauge, postopc_-prefixed sanitized names, TYPE lines,
// cumulative le buckets ending at +Inf, and _sum/_count for histograms.
func TestWritePrometheus(t *testing.T) {
	sink := NewSink()
	sink.Counter("cache.hits_total").Add(3)
	sink.Gauge("par.items_per_worker").Set(2.5)
	h := sink.Metrics.Histogram("h.lat_ns", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, sink.Metrics.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"postopc_build_info{",
		`goamd64="`,
		"# TYPE postopc_cache_hits_total counter",
		"postopc_cache_hits_total 3",
		"# TYPE postopc_par_items_per_worker gauge",
		"postopc_par_items_per_worker 2.5",
		"# TYPE postopc_h_lat_ns histogram",
		`postopc_h_lat_ns_bucket{le="10"} 1`,
		`postopc_h_lat_ns_bucket{le="100"} 2`,
		`postopc_h_lat_ns_bucket{le="+Inf"} 3`,
		"postopc_h_lat_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestSummaryTable: aggregation keys by span name and orders rows by total
// duration descending.
func TestSummaryTable(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 3; i++ {
		tr.Start("busy", 0).End()
	}
	tr.Start("quick", 0).End()
	tb := tr.SummaryTable()
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "busy") || !strings.Contains(out, "quick") {
		t.Fatalf("summary missing span rows:\n%s", out)
	}
}

// TestMonotonic: the package clock must never run backwards — span
// durations and ObserveSince deltas rely on it.
func TestMonotonic(t *testing.T) {
	prev := Monotonic()
	for i := 0; i < 1000; i++ {
		now := Monotonic()
		if now < prev {
			t.Fatalf("clock went backwards: %d -> %d", prev, now)
		}
		prev = now
	}
}
