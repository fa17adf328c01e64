package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The nil handle is a no-op,
// so instrumented hot paths update unconditionally; a live increment is a
// single atomic add — no locks, no allocation.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
//
//postopc:allocfree
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
//
//postopc:allocfree
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for the nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. The nil handle is a no-op; a
// live update is a single atomic store of the float's bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
//
//postopc:allocfree
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 for the nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// CountBuckets are the default histogram bounds for small-count
// distributions (gates evaluated per analysis, items per batch): roughly
// half-decade steps from 1 to 100k. Counts past the last bound land in the
// implicit +Inf bucket.
var CountBuckets = []float64{
	1, 3, 10, 32, 100, 320, 1e3, 3.2e3, 1e4, 3.2e4, 1e5,
}

// Histogram is a fixed-bucket distribution. Bounds are upper bucket edges
// (ascending); counts[len(bounds)] is the +Inf bucket. The nil handle is a
// no-op; a live observation is a binary search over the bounds plus two
// atomic adds — no locks, no allocation, and log2(len) comparisons so the
// 193-bound HDR latency grid costs the same as the old 15-bound walk.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1, last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// Observe records one sample.
//
//postopc:allocfree
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Hand-rolled first-bound-≥-v binary search (sort.Search would pull a
	// closure into this allocfree path). A sample equal to a bound lands in
	// that bound's bucket; NaN compares false everywhere and lands in
	// bucket 0, same as the linear walk it replaced.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// StartTimer returns a start mark for ObserveSince, without reading the
// clock when the handle is disabled.
//
//postopc:allocfree
func (h *Histogram) StartTimer() int64 {
	if h == nil {
		return 0
	}
	return Monotonic()
}

// ObserveSince records the nanoseconds elapsed since a StartTimer mark.
//
//postopc:allocfree
func (h *Histogram) ObserveSince(start int64) {
	if h == nil {
		return
	}
	h.Observe(float64(Monotonic() - start))
}

// TimedSince records the elapsed nanoseconds like ObserveSince and also
// returns them, so a caller that feeds both a histogram and a per-window
// ledger record reads the clock once. The nil handle records nothing and
// returns 0 — the disabled path never touches the clock.
//
//postopc:allocfree
func (h *Histogram) TimedSince(start int64) int64 {
	if h == nil {
		return 0
	}
	d := Monotonic() - start
	h.Observe(float64(d))
	return d
}

// Registry holds the named metrics of one run. Metrics are created on
// first resolution and live for the registry's lifetime; resolving the
// same name again returns the same handle. Resolution takes a lock —
// callers resolve once at setup and keep the handle out of hot loops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it if absent.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if absent.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// if absent. Bounds must be ascending; a histogram resolved twice keeps
// its original bounds (mismatched re-registration panics — metric names
// identify one distribution).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
		return h
	}
	if len(h.bounds) != len(bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
	}
	return h
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string
	Value uint64
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string
	Value float64
}

// HistogramValue is one histogram in a snapshot. Counts has one entry per
// bound plus the trailing +Inf bucket.
type HistogramValue struct {
	Name   string
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot is a point-in-time copy of every metric, each section sorted by
// name — the deterministic order every exporter renders.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

// Snapshot copies the registry. Concurrent updates may or may not be
// included (each metric is read atomically); the ordering is always
// sorted by name.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		hv := HistogramValue{
			Name:   name,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Count:  h.count.Load(),
			Sum:    math.Float64frombits(h.sumBits.Load()),
		}
		for i := range h.counts {
			hv.Counts[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
