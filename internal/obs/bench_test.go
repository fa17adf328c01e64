package obs

import "testing"

// The overhead budget of disabled telemetry, asserted (TestDisabledSink*)
// and measured (BenchmarkObsOverhead; reference numbers in BENCH_obs.json):
//
//	go test -run=NONE -bench=ObsOverhead -benchmem ./internal/obs/
//
// A disabled handle must cost one nil check — no clock read, no atomic, no
// allocation — because the kernel and scheduler hot paths update handles
// unconditionally and their steady-state allocation budgets (see
// litho.TestKernelAllocBudget) hold with telemetry compiled in.

// TestDisabledSinkZeroAlloc is the hard budget: a full disabled
// counter/timer/span/ledger round adds zero allocations.
func TestDisabledSinkZeroAlloc(t *testing.T) {
	var s *Sink
	c := s.Counter("x")
	g := s.Gauge("x")
	h := s.LatencyHistogram("x")
	j := s.Ledger()
	var rec *WindowRecord
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(1)
		h.ObserveSince(h.StartTimer())
		rec.Observe(StageOPC, h.TimedSince(h.StartTimer()))
		j.Record(rec)
		sp := s.StartChild("x", 0)
		sp.End()
	}); n != 0 {
		t.Fatalf("disabled telemetry costs %v allocs/op, want 0", n)
	}
}

// TestEnabledCounterZeroAlloc: live counter increments are a single atomic
// add — also allocation-free, so hot loops never pay GC for metrics.
func TestEnabledCounterZeroAlloc(t *testing.T) {
	s := NewSink()
	c := s.Counter("x")
	h := s.LatencyHistogram("x")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(5e3)
	}); n != 0 {
		t.Fatalf("enabled counter+histogram cost %v allocs/op, want 0", n)
	}
}

func BenchmarkObsOverhead(b *testing.B) {
	b.Run("counter-disabled", func(b *testing.B) {
		var s *Sink
		c := s.Counter("x")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("counter-enabled", func(b *testing.B) {
		c := NewSink().Counter("x")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram-timer-disabled", func(b *testing.B) {
		var s *Sink
		h := s.LatencyHistogram("x")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.ObserveSince(h.StartTimer())
		}
	})
	b.Run("histogram-timer-enabled", func(b *testing.B) {
		h := NewSink().LatencyHistogram("x")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.ObserveSince(h.StartTimer())
		}
	})
	b.Run("ledger-record-disabled", func(b *testing.B) {
		var s *Sink
		j := s.Ledger()
		var rec *WindowRecord
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.Observe(StageOPC, 5)
			j.Record(rec)
		}
	})
	b.Run("ledger-record-enabled", func(b *testing.B) {
		j := NewJournal(5)
		rec := &WindowRecord{Kind: "window"}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.Observe(StageOPC, 5)
		}
		j.Record(rec)
	})
	b.Run("span-disabled", func(b *testing.B) {
		var s *Sink
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := s.Start("x")
			sp.End()
		}
	})
	b.Run("span-enabled", func(b *testing.B) {
		s := NewSink()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := s.Start("x")
			sp.End()
		}
	})
}
