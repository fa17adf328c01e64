package obs

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

// ledgerMetrics writes a journal out and reads its flat metric view back
// — the exact pipeline postopc-report diff runs.
func ledgerMetrics(t *testing.T, j *Journal) map[string]float64 {
	t.Helper()
	snap := Snapshot{
		Counters: []CounterValue{{Name: "cache.hits_total", Value: 2}, {Name: "cache.misses_total", Value: 10}},
	}
	raw := ledgerBytes(t, j, snap, []SpanEvent{{Name: "flow.run", ID: 1, Dur: 5e6}})
	l, err := ReadLedger(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return l.Metrics()
}

// TestDiffFlagsInjectedRegression is the acceptance gate: a 25% uniform
// per-stage latency inflation between two otherwise identical runs must
// regress past a 20% threshold, and the identical pair must diff clean.
func TestDiffFlagsInjectedRegression(t *testing.T) {
	base := ledgerMetrics(t, testJournal(1))
	slow := ledgerMetrics(t, testJournal(5)) // 5× — far past any 20% gate
	same := ledgerMetrics(t, testJournal(1))

	opt := DiffOptions{ThresholdPct: 20}
	if d := Diff(base, same, opt); d.Regressions != 0 {
		t.Fatalf("identical ledgers regressed: %+v", d.Rows[:d.Regressions])
	}
	d := Diff(base, slow, opt)
	if d.Regressions == 0 {
		t.Fatal("5× stage latencies not flagged at a 20% threshold")
	}
	// Every stage percentile series must be among the regressions, and
	// regressions sort first.
	regressed := map[string]bool{}
	for _, r := range d.Rows[:d.Regressions] {
		if !r.Regressed {
			t.Fatal("rows not sorted regressions-first")
		}
		regressed[r.Metric] = true
	}
	for _, m := range []string{"stage.opc.p50_ns", "stage.opc.p99_ns", "stage.image.p50_ns", "stage.clip.p95_ns"} {
		if !regressed[m] {
			t.Fatalf("expected %s among regressions; got %v", m, regressed)
		}
	}
	// A modest 25% inflation must also trip a 20% gate (the literal
	// acceptance criterion).
	q := NewJournal(3)
	q.SetManifest(Manifest{Tool: "test"})
	for i := 0; i < 10; i++ {
		rec := &WindowRecord{Index: i, Kind: "window", Class: "miss", Batch: -1}
		rec.Observe(StageOPC, (50000+1000*int64(i))*5/4)
		q.Record(rec)
	}
	b := NewJournal(3)
	b.SetManifest(Manifest{Tool: "test"})
	for i := 0; i < 10; i++ {
		rec := &WindowRecord{Index: i, Kind: "window", Class: "miss", Batch: -1}
		rec.Observe(StageOPC, 50000+1000*int64(i))
		b.Record(rec)
	}
	d = Diff(ledgerMetrics(t, b), ledgerMetrics(t, q), opt)
	found := false
	for _, r := range d.Rows {
		if r.Metric == "stage.opc.p50_ns" {
			found = true
			if !r.Regressed {
				t.Fatalf("25%% opc p50 inflation not flagged at 20%%: %+v", r)
			}
		}
	}
	if !found {
		t.Fatal("stage.opc.p50_ns not compared")
	}
}

// TestDiffDirectionAndOverrides: rates regress downward, latencies
// upward, and the MinNS floor drops noise.
func TestDiffDirectionAndOverrides(t *testing.T) {
	base := map[string]float64{"cache.hit_rate": 0.9, "stage.opc.p50_ns": 2000, "stage.tiny.p50_ns": 40}
	cur := map[string]float64{"cache.hit_rate": 0.5, "stage.opc.p50_ns": 2200, "stage.tiny.p50_ns": 4000}
	d := Diff(base, cur, DiffOptions{ThresholdPct: 20, MinNS: 1000})
	byName := map[string]DiffRow{}
	for _, r := range d.Rows {
		byName[r.Metric] = r
	}
	if r, ok := byName["cache.hit_rate"]; !ok || !r.Regressed {
		t.Fatalf("hit-rate collapse not flagged: %+v", byName)
	}
	if r, ok := byName["stage.opc.p50_ns"]; !ok || r.Regressed || r.Threshold != 20 {
		t.Fatalf("10%% latency growth flagged or misreported at a 20%% threshold: %+v", r)
	}
	if _, ok := byName["stage.tiny.p50_ns"]; ok {
		t.Fatal("sub-MinNS baseline compared")
	}
}

// TestDiffTable renders verdict rows.
func TestDiffTable(t *testing.T) {
	d := Diff(map[string]float64{"a_ns": 100}, map[string]float64{"a_ns": 300}, DiffOptions{ThresholdPct: 20})
	var buf bytes.Buffer
	d.Table().Fprint(&buf)
	if !strings.Contains(buf.String(), "REGRESSED") {
		t.Fatalf("diff table missing verdict:\n%s", buf.String())
	}
}

// TestReadLedgerRejectsGarbage: non-ledger input errors instead of
// returning an empty ledger.
func TestReadLedgerRejectsGarbage(t *testing.T) {
	if _, err := ReadLedger(strings.NewReader("not json\n")); err == nil {
		t.Fatal("invalid JSON accepted")
	}
	if _, err := ReadLedger(strings.NewReader(`{"foo": 1}`)); err == nil {
		t.Fatal("unrelated JSON accepted as a ledger")
	}
	// A counter is a uint64; anything else is an error, not a rounded or
	// wrapped value.
	for _, v := range []string{"-1", "1.5", `"x"`} {
		if _, err := ReadLedger(strings.NewReader(`{"t":"counter","name":"c","v":` + v + `}`)); err == nil {
			t.Fatalf("counter value %s accepted", v)
		}
	}
}

// FuzzReadLedger fuzzes the ledger reader, postopc-report's only input
// parser, with two properties: (a) arbitrary bytes never make ReadLedger,
// Metrics or SummaryTables panic; (b) a journal holding one fuzzed window
// record and a fuzzed counter, written by WriteLedger, reads back with
// the same values.
func FuzzReadLedger(f *testing.F) {
	snap := Snapshot{Counters: []CounterValue{{Name: "cache.hits_total", Value: 2}}}
	seed := ledgerBytes(f, testJournal(1), snap, []SpanEvent{{Name: "flow.run", ID: 1, Dur: 5e6}})
	for _, data := range [][]byte{seed, []byte("not json\n"), []byte(`{"foo": 1}`)} {
		f.Add(data, "window", "sig", "miss", int64(1000), int64(0), int64(50000), int64(200000), int64(0), int64(0), "cache.hits_total", uint64(2))
	}
	f.Add(seed, "tile", "", "hit", int64(-1), int64(1)<<62, int64(0), int64(0), int64(7), int64(0), "c", uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, data []byte, kind, sig, class string, clip, canon, opcNS, image, contour, profile int64, counter string, value uint64) {
		if l, err := ReadLedger(bytes.NewReader(data)); err == nil {
			l.Metrics()
			for _, tb := range l.SummaryTables() {
				tb.Fprint(io.Discard)
			}
		}

		for _, s := range []string{kind, sig, class, counter} {
			if !utf8.ValidString(s) {
				return // encoding/json writes invalid UTF-8 as U+FFFD
			}
		}
		j := NewJournal(0)
		j.SetManifest(Manifest{Tool: "fuzz"})
		rec := WindowRecord{Kind: kind, Sig: sig, Class: class, NS: [NumStages]int64{clip, canon, opcNS, image, contour, profile}}
		j.Record(&rec)
		raw := ledgerBytes(t, j, Snapshot{Counters: []CounterValue{{Name: counter, Value: value}}}, nil)
		l, err := ReadLedger(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("written ledger does not parse: %v\n%s", err, raw)
		}
		if len(l.Windows) != 1 {
			t.Fatalf("got %d windows, want 1\n%s", len(l.Windows), raw)
		}
		w := l.Windows[0]
		if w.Kind != kind || w.Sig != sig || w.Class != class || w.NS != rec.NS || w.Total != rec.Total() {
			t.Fatalf("window did not round-trip: got %+v, want %+v (total %d)", w, rec, rec.Total())
		}
		if got, ok := l.Counters[counter]; !ok || got != value {
			t.Fatalf("counter %q = %d (present %v), want %d", counter, got, ok, value)
		}
	})
}
