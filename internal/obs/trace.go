package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"postopc/internal/report"
)

// SpanID identifies one span within a Tracer. IDs are allocated from an
// atomic counter, so they are unique but — like any timing artifact —
// schedule-dependent; nothing downstream of a trace may feed back into
// results.
type SpanID uint64

// SpanEvent is one completed span.
type SpanEvent struct {
	// Name is the span name ("stage.opc").
	Name string
	// ID is the span's identity; Parent is the explicit parent span (0 for
	// roots).
	ID, Parent SpanID
	// Start is the span's opening time (monotonic nanoseconds since
	// process start); Dur its length in nanoseconds.
	Start, Dur int64
}

// Tracer records completed spans. Safe for concurrent use; the zero-ish
// nil *Tracer is a no-op.
type Tracer struct {
	next atomic.Uint64

	mu     sync.Mutex
	events []SpanEvent // in the order the spans ended
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Start opens a span. End it to record it; an unfinished span is never
// exported.
func (t *Tracer) Start(name string, parent SpanID) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		tracer: t,
		id:     SpanID(t.next.Add(1)),
		parent: parent,
		name:   name,
		start:  Monotonic(),
	}
}

// Span is one in-flight span. The zero Span (from a disabled tracer) is a
// no-op: ID returns 0 and End does nothing.
type Span struct {
	tracer *Tracer
	id     SpanID
	parent SpanID
	name   string
	start  int64
}

// ID returns the span's identity, for parenting children (0 when
// disabled — children of a disabled span become roots, which is
// consistent because they are never recorded either).
func (sp Span) ID() SpanID { return sp.id }

// End records the span.
func (sp Span) End() {
	if sp.tracer == nil {
		return
	}
	ev := SpanEvent{Name: sp.name, ID: sp.id, Parent: sp.parent, Start: sp.start, Dur: Monotonic() - sp.start}
	sp.tracer.mu.Lock()
	sp.tracer.events = append(sp.tracer.events, ev)
	sp.tracer.mu.Unlock()
}

// Events returns a copy of the completed spans, sorted by start time (ID
// breaks ties) so the export order is stable for a given recording.
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanEvent(nil), t.events...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Dump writes the last n completed spans (every span, when fewer have
// ended) in the order they ended, one line each with start offset and
// duration in milliseconds, under a header that counts all the tracer
// holds. It is the crash dump of a failed or stalled run (cli.Fatal and
// SIGQUIT): the tail of the work that led into it. Safe to call while
// spans are ending; a nil tracer writes nothing.
func (t *Tracer) Dump(w io.Writer, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	total := len(t.events)
	keep := max(min(n, total), 0)
	tail := append([]SpanEvent(nil), t.events[total-keep:]...)
	t.mu.Unlock()
	fmt.Fprintf(w, "span dump: last %d of %d span(s)\n", len(tail), total)
	for _, ev := range tail {
		fmt.Fprintf(w, "  +%12.3fms %8.3fms  %-28s id=%d parent=%d\n",
			float64(ev.Start)/1e6, float64(ev.Dur)/1e6, ev.Name, ev.ID, ev.Parent)
	}
}

// chromeTraceEvent is one entry of the Chrome trace-event format ("X" =
// complete event, "M" = metadata). Timestamps and durations are
// microseconds; metadata events omit them. Args is either
// chromeTraceArgs (span identity) or chromeMetaArgs (lane naming).
type chromeTraceEvent struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	Ts   float64     `json:"ts"`
	Dur  float64     `json:"dur"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	Args interface{} `json:"args"`
}

type chromeTraceArgs struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
}

type chromeMetaArgs struct {
	Name string `json:"name"`
}

type chromeSortArgs struct {
	SortIndex int `json:"sort_index"`
}

// chromeTrace is the object-form trace file chrome://tracing (and Perfetto)
// load.
type chromeTrace struct {
	TraceEvents     []chromeTraceEvent `json:"traceEvents"`
	DisplayTimeUnit string             `json:"displayTimeUnit"`
}

// WriteChromeTrace emits the recorded spans as Chrome trace-event JSON,
// loadable in chrome://tracing or Perfetto. Every span is a complete ("X")
// event placed on a per-span-name lane; the explicit span/parent IDs ride
// along in args. The file opens with "M" metadata events naming the
// process and each lane (thread_name = span name, sorted), so the viewer
// shows labeled stage lanes instead of bare tids.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()

	// Deterministic lane assignment: sorted span-name order → tid 1..n.
	nameSet := map[string]bool{}
	for _, ev := range events {
		nameSet[ev.Name] = true
	}
	names := make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)
	lane := make(map[string]int, len(names))
	for i, n := range names {
		lane[n] = i + 1
	}

	out := chromeTrace{
		TraceEvents:     make([]chromeTraceEvent, 0, len(events)+2*len(names)+1),
		DisplayTimeUnit: "ms",
	}
	out.TraceEvents = append(out.TraceEvents, chromeTraceEvent{
		Name: "process_name", Ph: "M", Pid: 1, Args: chromeMetaArgs{Name: "postopc"},
	})
	for _, n := range names {
		out.TraceEvents = append(out.TraceEvents,
			chromeTraceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: lane[n], Args: chromeMetaArgs{Name: n}},
			chromeTraceEvent{Name: "thread_sort_index", Ph: "M", Pid: 1, Tid: lane[n], Args: chromeSortArgs{SortIndex: lane[n]}},
		)
	}
	for _, ev := range events {
		out.TraceEvents = append(out.TraceEvents, chromeTraceEvent{
			Name: ev.Name,
			Ph:   "X",
			Ts:   float64(ev.Start) / 1e3,
			Dur:  float64(ev.Dur) / 1e3,
			Pid:  1,
			Tid:  lane[ev.Name],
			Args: chromeTraceArgs{ID: uint64(ev.ID), Parent: uint64(ev.Parent)},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// SummaryTable renders the per-span-name aggregate of the recorded spans
// (see spanTable).
func (t *Tracer) SummaryTable() *report.Table {
	return spanTable(summarizeSpans(t.Events()))
}

// summarizeSpans aggregates spans per name — count, total, p50 and p99
// duration — one entry per name, sorted by name. It feeds both the
// ledger's span lines and the span summary table.
func summarizeSpans(events []SpanEvent) []LedgerSpan {
	byName := map[string][]int64{}
	for _, ev := range events {
		byName[ev.Name] = append(byName[ev.Name], ev.Dur)
	}
	out := make([]LedgerSpan, 0, len(byName))
	for name, durs := range byName {
		sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
		var total int64
		for _, d := range durs {
			total += d
		}
		out = append(out, LedgerSpan{
			Name: name, Count: len(durs), Total: total,
			P50: percentileNS(durs, 0.50), P99: percentileNS(durs, 0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// spanTable renders span summaries as a report table, one row per name,
// sorted by total time descending (name breaks ties). It is the span
// table of both -trace's stdout summary and postopc-report summary.
func spanTable(spans []LedgerSpan) *report.Table {
	rows := append([]LedgerSpan(nil), spans...)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Total != rows[j].Total {
			return rows[i].Total > rows[j].Total
		}
		return rows[i].Name < rows[j].Name
	})
	tb := report.NewTable("span summary", "span", "count", "total(ms)", "p50(ms)", "p99(ms)")
	for _, s := range rows {
		tb.AddF(3, s.Name, s.Count, float64(s.Total)/1e6, float64(s.P50)/1e6, float64(s.P99)/1e6)
	}
	return tb
}

// percentileNS is the p-quantile of sorted durations by linear
// interpolation between order statistics (the same estimator the
// statistical-timing path uses).
func percentileNS(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	x := p * float64(n-1)
	i := int(x)
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := x - float64(i)
	return sorted[i] + int64(frac*float64(sorted[i+1]-sorted[i]))
}
