// Package obs is the run-telemetry layer of the flow–cache–kernel stack:
// a metrics registry (atomic counters, gauges and fixed-bucket latency
// histograms with zero-alloc hot-path updates and deterministic snapshot
// order), span tracing with monotonic timestamps and explicit parent IDs
// (exportable as Chrome trace-event JSON and as a report.Table summary),
// the run ledger (journal.go, ledger.go), and the Prometheus text-format
// exporter. Every export is written to an io.Writer; the package serves
// nothing.
//
// Everything hangs off a Sink, and the zero value is a no-op: a nil *Sink
// — and every handle resolved through one — is safe to use and does
// nothing, so instrumented code carries no conditionals and library
// packages never need to know whether telemetry is on.
//
// Determinism contract: telemetry must never perturb results. Metric and
// span updates only ever write to telemetry state — never to anything an
// algorithm reads — and the clock they read (see clock.go) is confined to
// this package, so a run with a Sink attached is byte-identical to a run
// without one at any worker count (the flow's TestRunObsDeterminism
// asserts this end to end). Snapshots are sorted by metric name, so
// exports are reproducible even though registration order is
// schedule-dependent.
//
// Naming conventions: metric names are lower-case dotted paths,
// "subsystem.metric", with the unit as a suffix — "_total" for counters,
// "_ns" for latency histograms (nanoseconds), bare nouns for gauges
// ("cache.entries"). The Prometheus exporter maps them to
// "postopc_subsystem_metric" series.
package obs

import "io"

// Sink bundles the telemetry backends of one run. Any field may be nil
// to disable that part; a nil *Sink disables everything. Handles resolved
// from a disabled Sink are nil and no-ops, so callers resolve once and use
// unconditionally.
type Sink struct {
	// Metrics receives counter/gauge/histogram updates.
	Metrics *Registry
	// Trace receives completed spans.
	Trace *Tracer
	// Journal receives the run manifest and per-window ledger records
	// (nil unless the run writes a ledger).
	Journal *Journal
}

// NewSink returns a Sink with both a metrics registry and a tracer.
// The journal is opt-in via WithJournal.
func NewSink() *Sink {
	return &Sink{Metrics: NewRegistry(), Trace: NewTracer()}
}

// WithJournal attaches a run journal keeping topK exemplars per stage
// (<= 0 for the default) and returns the sink.
func (s *Sink) WithJournal(topK int) *Sink {
	s.Journal = NewJournal(topK)
	return s
}

// Enabled reports whether any backend is attached.
func (s *Sink) Enabled() bool {
	return s != nil && (s.Metrics != nil || s.Trace != nil || s.Journal != nil)
}

// Ledger resolves the run journal (nil, a no-op, when disabled). Library
// code only ever writes into it — records, manifest fields — never reads.
func (s *Sink) Ledger() *Journal {
	if s == nil {
		return nil
	}
	return s.Journal
}

// WriteLedger renders the sink's journal, metrics snapshot and span
// trace as a JSON-lines run ledger. Export boundary only (cli/report);
// a sink without a journal writes a ledger with metric and span sections
// but no manifest fields or window records.
func (s *Sink) WriteLedger(w io.Writer) error {
	j := s.Ledger()
	if j == nil {
		j = NewJournal(0)
	}
	var snap Snapshot
	if s != nil && s.Metrics != nil {
		snap = s.Metrics.Snapshot()
	}
	var spans []SpanEvent
	if s != nil && s.Trace != nil {
		spans = s.Trace.Events()
	}
	return j.WriteLedger(w, snap, spans)
}

// Counter resolves a counter handle (nil, a no-op, when disabled).
func (s *Sink) Counter(name string) *Counter {
	if s == nil || s.Metrics == nil {
		return nil
	}
	return s.Metrics.Counter(name)
}

// Gauge resolves a gauge handle (nil, a no-op, when disabled).
func (s *Sink) Gauge(name string) *Gauge {
	if s == nil || s.Metrics == nil {
		return nil
	}
	return s.Metrics.Gauge(name)
}

// LatencyHistogram resolves a histogram handle over the HDR log-linear
// latency buckets (nil, a no-op, when disabled). Observations are
// nanoseconds; quantiles interpolated from the snapshot resolve well
// below the 12.5% sub-bucket width (see hdr.go).
func (s *Sink) LatencyHistogram(name string) *Histogram {
	if s == nil || s.Metrics == nil {
		return nil
	}
	return s.Metrics.Histogram(name, HDRLatencyBuckets)
}

// CountHistogram resolves a histogram handle over the default count
// buckets (nil, a no-op, when disabled). Observations are item counts —
// gates evaluated per analysis, entries per batch.
func (s *Sink) CountHistogram(name string) *Histogram {
	if s == nil || s.Metrics == nil {
		return nil
	}
	return s.Metrics.Histogram(name, CountBuckets)
}

// Start opens a root span (a zero Span, a no-op, when tracing is
// disabled).
func (s *Sink) Start(name string) Span {
	if s == nil || s.Trace == nil {
		return Span{}
	}
	return s.Trace.Start(name, 0)
}

// StartChild opens a span with an explicit parent (pass parent 0 for a
// root).
func (s *Sink) StartChild(name string, parent SpanID) Span {
	if s == nil || s.Trace == nil {
		return Span{}
	}
	return s.Trace.Start(name, parent)
}
