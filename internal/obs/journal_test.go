package obs

import (
	"bytes"
	"strings"
	"testing"
)

// testJournal builds a journal with a fixed manifest and a deterministic
// set of window records; scale inflates every stage latency, so two
// journals at different scales model a uniform regression.
func testJournal(scale int64) *Journal {
	j := NewJournal(3)
	j.SetManifest(Manifest{
		Tool: "test", GoVersion: "go1.x", GOOS: "linux", GOARCH: "amd64",
		GOMAXPROCS: 4, NumCPU: 4, VekLevel: "v1", VekPath: "avx2", CPUFeatures: "none", Module: "postopc",
	})
	j.SetField("flow.workers", "4")
	j.SetField("flow.batch", "8")
	for i := 0; i < 10; i++ {
		rec := &WindowRecord{Index: i, Kind: "window", Sig: "sig", Class: "miss", Batch: i / 4, Worker: i % 2}
		rec.Observe(StageClip, int64(1000+100*i)*scale)
		rec.Observe(StageOPC, int64(50000+1000*i)*scale)
		rec.Observe(StageImage, int64(200000+5000*i)*scale)
		j.Record(rec)
	}
	// A couple of cache hits: no stage work, still attributed.
	for i := 10; i < 12; i++ {
		j.Record(&WindowRecord{Index: i, Kind: "window", Sig: "sig", Class: "hit", Batch: -1, Worker: 0})
	}
	return j
}

func ledgerBytes(t *testing.T, j *Journal, snap Snapshot, spans []SpanEvent) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := j.WriteLedger(&buf, snap, spans); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLedgerRoundTrip: a written ledger parses back to the same manifest,
// fields, records, stage summaries and exemplars.
func TestLedgerRoundTrip(t *testing.T) {
	j := testJournal(1)
	snap := Snapshot{
		Counters: []CounterValue{{Name: "cache.hits_total", Value: 2}, {Name: "cache.misses_total", Value: 10}},
		Gauges:   []GaugeValue{{Name: "par.items_per_worker", Value: 2.5}},
	}
	spans := []SpanEvent{{Name: "flow.run", ID: 1, Start: 0, Dur: 5e6}}
	raw := ledgerBytes(t, j, snap, spans)

	l, err := ReadLedger(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if l.Manifest.Tool != "test" || l.Manifest.VekLevel != "v1" || l.Manifest.VekPath != "avx2" {
		t.Fatalf("manifest did not round-trip: %+v", l.Manifest)
	}
	if l.Fields["flow.workers"] != "4" || l.Fields["flow.batch"] != "8" {
		t.Fatalf("fields did not round-trip: %v", l.Fields)
	}
	if len(l.Windows) != 12 {
		t.Fatalf("got %d windows, want 12", len(l.Windows))
	}
	if l.Counters["cache.hits_total"] != 2 {
		t.Fatalf("counters did not round-trip: %v", l.Counters)
	}
	// Stage summaries: clip, opc, image executed; the two hits contribute
	// no samples.
	if len(l.Stages) != 3 {
		t.Fatalf("got %d stage summaries, want 3: %+v", len(l.Stages), l.Stages)
	}
	for _, s := range l.Stages {
		if s.Count != 10 {
			t.Fatalf("stage %s: %d samples, want 10", s.Stage, s.Count)
		}
		if s.P50 <= 0 || s.P99 < s.P50 || s.Max < s.P99 {
			t.Fatalf("stage %s: implausible percentiles %+v", s.Stage, s)
		}
	}
	// Exemplars: topK=3 per executed stage, rank 1 is the slowest (index 9
	// — latencies grow with index).
	perStage := map[string][]LedgerExemplar{}
	for _, e := range l.Exemplars {
		perStage[e.Stage] = append(perStage[e.Stage], e)
	}
	if len(perStage) != 3 {
		t.Fatalf("exemplar stages: %v", perStage)
	}
	for st, exs := range perStage {
		if len(exs) != 3 {
			t.Fatalf("stage %s: %d exemplars, want 3", st, len(exs))
		}
		if exs[0].Rank != 1 || exs[0].Index != 9 {
			t.Fatalf("stage %s: top exemplar %+v, want rank 1 index 9", st, exs[0])
		}
	}
	// Classification survives.
	hits := 0
	for _, w := range l.Windows {
		if w.Class == "hit" {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("got %d hit windows, want 2", hits)
	}
}

// TestLedgerDeterministic: the same run data renders byte-identically,
// regardless of record insertion order.
func TestLedgerDeterministic(t *testing.T) {
	snap := Snapshot{Counters: []CounterValue{{Name: "c", Value: 1}}}
	a := ledgerBytes(t, testJournal(1), snap, nil)

	// Same records, reversed insertion order.
	j := NewJournal(3)
	j.SetManifest(Manifest{
		Tool: "test", GoVersion: "go1.x", GOOS: "linux", GOARCH: "amd64",
		GOMAXPROCS: 4, NumCPU: 4, VekLevel: "v1", VekPath: "avx2", CPUFeatures: "none", Module: "postopc",
	})
	j.SetField("flow.batch", "8")
	j.SetField("flow.workers", "4")
	for i := 11; i >= 10; i-- {
		j.Record(&WindowRecord{Index: i, Kind: "window", Sig: "sig", Class: "hit", Batch: -1, Worker: 0})
	}
	for i := 9; i >= 0; i-- {
		rec := &WindowRecord{Index: i, Kind: "window", Sig: "sig", Class: "miss", Batch: i / 4, Worker: i % 2}
		rec.Observe(StageClip, int64(1000+100*i))
		rec.Observe(StageOPC, int64(50000+1000*i))
		rec.Observe(StageImage, int64(200000+5000*i))
		j.Record(rec)
	}
	b := ledgerBytes(t, j, snap, nil)
	if !bytes.Equal(a, b) {
		t.Fatal("ledger bytes depend on record insertion order")
	}
}

// TestJournalNilSafety: the nil journal and nil record are no-ops on
// every method — the ledger-off path has no conditionals at call sites.
func TestJournalNilSafety(t *testing.T) {
	var j *Journal
	j.SetManifest(Manifest{Tool: "x"})
	j.SetField("k", "v")
	j.Record(&WindowRecord{})
	j.Record(nil)
	var r *WindowRecord
	r.Observe(StageOPC, 5)
	if r.Total() != 0 {
		t.Fatal("nil record has a total")
	}
	var s *Sink
	if s.Ledger() != nil {
		t.Fatal("nil sink resolves a journal")
	}
	s.Ledger().Record(nil)
	// Out-of-range stages are dropped, not a panic.
	rec := &WindowRecord{}
	rec.Observe(StageID(-1), 5)
	rec.Observe(NumStages, 5)
	if rec.Total() != 0 {
		t.Fatal("out-of-range stage recorded")
	}
}

// TestSinkWriteLedger: the sink-level convenience gathers snapshot and
// spans; a sink without a journal still writes metric/span sections.
func TestSinkWriteLedger(t *testing.T) {
	sink := NewSink().WithJournal(0).WithFlightRecorder(0)
	sink.Counter("cache.hits_total").Add(5)
	sink.Start("flow.run").End()
	sink.Ledger().SetManifest(Manifest{Tool: "t"})
	sink.Ledger().Record(&WindowRecord{Index: 0, Kind: "window", Class: "compute", Batch: -1})
	var buf bytes.Buffer
	if err := sink.WriteLedger(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"t":"manifest"`, `"t":"counter"`, `"t":"span"`, `"t":"window"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("ledger missing %s:\n%s", want, out)
		}
	}
	l, err := ReadLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Windows) != 1 || l.Counters["cache.hits_total"] != 5 {
		t.Fatalf("sink ledger did not round-trip: %+v", l)
	}

	// No journal: metrics still exported.
	plain := NewSink()
	plain.Counter("c").Inc()
	buf.Reset()
	if err := plain.WriteLedger(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"c"`) {
		t.Fatalf("journal-less ledger missing metrics:\n%s", buf.String())
	}
}

// TestLedgerSummaryTables smoke-tests the report rendering.
func TestLedgerSummaryTables(t *testing.T) {
	raw := ledgerBytes(t, testJournal(1), Snapshot{}, []SpanEvent{{Name: "flow.run", Dur: 1e6}})
	l, err := ReadLedger(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tb := range l.SummaryTables() {
		tb.Fprint(&buf)
	}
	out := buf.String()
	for _, want := range []string{"run manifest", "stage latency", "span summary", "cache classification", "slowest windows"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}
