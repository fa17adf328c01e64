package obs

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// dumpIDs returns the span IDs of a Dump's lines, in line order.
func dumpIDs(t *testing.T, out string) []SpanID {
	t.Helper()
	var ids []SpanID
	for _, line := range strings.Split(strings.TrimSpace(out), "\n")[1:] {
		var id, parent uint64
		f := strings.Fields(line)
		if _, err := fmt.Sscanf(f[len(f)-2]+" "+f[len(f)-1], "id=%d parent=%d", &id, &parent); err != nil {
			t.Fatalf("dump line %q: %v", line, err)
		}
		ids = append(ids, SpanID(id))
	}
	return ids
}

// TestFlightRing: the crash dump holds the last n spans in the order they
// ended, not the order they started, under a header that counts them all.
func TestFlightRing(t *testing.T) {
	tr := NewTracer()
	spans := make([]Span, 600)
	for i := range spans {
		spans[i] = tr.Start("s", 0)
	}
	// End in a fixed order unlike the start order: every 7th span, mod 600.
	var ended []SpanID
	for k := 0; k < len(spans); k++ {
		sp := spans[k*7%len(spans)]
		sp.End()
		ended = append(ended, sp.ID())
	}
	var buf bytes.Buffer
	tr.Dump(&buf, 512)
	out := buf.String()
	if !strings.HasPrefix(out, "span dump: last 512 of 600 span(s)\n") {
		t.Fatalf("dump header: %q", strings.SplitN(out, "\n", 2)[0])
	}
	got, want := dumpIDs(t, out), ended[600-512:]
	if len(got) != len(want) {
		t.Fatalf("dump holds %d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dump line %d: span %d, want %d (end order)", i, got[i], want[i])
		}
	}
}

// TestFlightNilSafety: the nil tracer dumps nothing, and a count outside
// [0, spans] never panics.
func TestFlightNilSafety(t *testing.T) {
	var nilTracer *Tracer
	var buf bytes.Buffer
	nilTracer.Dump(&buf, 512)
	if buf.Len() != 0 {
		t.Fatalf("nil tracer dumped %q", buf.String())
	}
	tr := NewTracer()
	tr.Start("a", 0).End()
	for _, n := range []int{-1, 0} {
		buf.Reset()
		tr.Dump(&buf, n)
		if got := buf.String(); got != "span dump: last 0 of 1 span(s)\n" {
			t.Fatalf("Dump(%d) = %q", n, got)
		}
	}
}

// TestFlightConcurrent dumps while spans end on other goroutines; under
// -race this proves Dump and End are race-free.
func TestFlightConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Start("w", 0).End()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tr.Dump(io.Discard, 512)
		}
	}()
	wg.Wait()
	<-done
	var buf bytes.Buffer
	tr.Dump(&buf, 512)
	if got := len(dumpIDs(t, buf.String())); got != 512 || !strings.Contains(buf.String(), "last 512 of 4000 span(s)") {
		t.Fatalf("dump after 4000 spans holds %d lines:\n%s", got, strings.SplitN(buf.String(), "\n", 2)[0])
	}
}

// TestFlightTracerHook: spans ended through a Sink land in its tracer's
// dump, with no extra instrumentation.
func TestFlightTracerHook(t *testing.T) {
	sink := NewSink()
	sink.Start("a").End()
	sink.Start("b").End()
	var buf bytes.Buffer
	sink.Trace.Dump(&buf, 512)
	out := buf.String()
	a, b := strings.Index(out, " a "), strings.Index(out, " b ")
	if !strings.Contains(out, "last 2 of 2 span(s)") || a < 0 || b < a {
		t.Fatalf("dump:\n%s", out)
	}
}
