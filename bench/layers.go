package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"postopc/internal/flow"
	"postopc/internal/geom"
	"postopc/internal/layout"
	"postopc/internal/litho"
	"postopc/internal/obs"
)

// The traced pass attributes an op's time to the program's layers from
// outside it, from three sources: the benchmark's own "op.*" spans around
// each public call; timing decorators installed on the flow's injectable
// models (OPC simulation, verification imaging, device model); and what the
// program already exports, its obs.Sink metrics and spans.

// callClock accumulates the wall time spent inside one decorated
// interface, the calls made and the items (masks, evaluations) they
// covered. Workers update it concurrently.
type callClock struct{ busyNS, calls, items atomic.Int64 }

func (c *callClock) done(t0 time.Time, items int) {
	c.busyNS.Add(int64(time.Since(t0)))
	c.calls.Add(1)
	c.items.Add(int64(items))
}

func (c *callClock) busy() float64 { return float64(c.busyNS.Load()) / 1e9 }

// clocks are the decorators' accumulators for one traced op.
type clocks struct{ opcSim, verify, device callClock }

// install wraps the flow's OPC-simulation model, verification model and
// device model in timing decorators. Each decorator forwards Recipe and
// AppendKey, so cache signatures, and therefore results, stay the same.
func (c *clocks) install(f *flow.Flow) error {
	dev, ok := f.Dev.(keyedDevice)
	if !ok {
		return fmt.Errorf("device model %T has no AppendKey; a decorator would change its cache signature", f.Dev)
	}
	f.OPCModelSim = timeModel(f.OPCModelSim, &c.opcSim)
	f.VerifySim = timeModel(f.VerifySim, &c.verify)
	f.Dev = timedDevice{keyedDevice: dev, clk: &c.device}
	return nil
}

// timedModel times a litho.Model; the embedded model supplies Recipe and
// AppendKey unchanged.
type timedModel struct {
	litho.Model
	clk *callClock
}

func (m timedModel) Aerial(mask *geom.Raster, c litho.Corner) (*litho.Image, error) {
	defer m.clk.done(time.Now(), 1)
	return m.Model.Aerial(mask, c)
}

func (m timedModel) AerialSeries(mask *geom.Raster, corners []litho.Corner) ([]*litho.Image, error) {
	defer m.clk.done(time.Now(), 1)
	return m.Model.AerialSeries(mask, corners)
}

// timedBatchModel keeps a litho.BatchModel's batch entry point, so the
// flow's batched pipeline takes the same path with the decorator on.
type timedBatchModel struct {
	timedModel
	batch litho.BatchModel
}

func (m timedBatchModel) AerialBatch(masks []*geom.Raster, corners []litho.Corner) ([][]*litho.Image, error) {
	defer m.clk.done(time.Now(), len(masks))
	return m.batch.AerialBatch(masks, corners)
}

func timeModel(m litho.Model, clk *callClock) litho.Model {
	tm := timedModel{Model: m, clk: clk}
	if bm, ok := m.(litho.BatchModel); ok {
		return timedBatchModel{timedModel: tm, batch: bm}
	}
	return tm
}

// keyedDevice is the device model as the flow uses it: equivalent lengths
// plus the key its cache signatures fold in.
type keyedDevice interface {
	EquivalentLengths(kind layout.DeviceKind, cds []float64) (float64, float64, error)
	AppendKey(dst []byte) []byte
}

type timedDevice struct {
	keyedDevice
	clk *callClock
}

func (d timedDevice) EquivalentLengths(kind layout.DeviceKind, cds []float64) (float64, float64, error) {
	defer d.clk.done(time.Now(), 1)
	return d.keyedDevice.EquivalentLengths(kind, cds)
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"flow_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Busy time is given as a share
// of the op's worker time (wall × GOMAXPROCS) and phases as a share of its
// wall time, so a layer a workload never enters reads 0 without being a
// time; times in seconds are kept for layers every workload runs. Counts
// repeat exactly from op to op.
var perLayer = []metricDef{
	{"place.wall_frac", "frac"},
	{"sta.build_s", "s"},
	{"sta.analyze_busy_s", "s"},
	{"sta.multicorner_wall_frac", "frac"},
	{"sta.montecarlo_wall_frac", "frac"},
	{"sta.mc_samples_per_s", "1/s"},
	{"sta.analyses", "count"},
	{"sta.gate_evals", "count"},
	{"sta.incremental_frac", "frac"},
	{"flow.new_s", "s"},
	{"flow.extract_wall_frac", "frac"},
	{"flow.orc_wall_frac", "frac"},
	{"flow.variation_wall_frac", "frac"},
	{"flow.windows_per_s", "1/s"},
	{"flow.windows", "count"},
	{"flow.tiles", "count"},
	{"flow.clip_busy_frac", "frac"},
	{"flow.other_busy_frac", "frac"},
	{"flow.idle_frac", "frac"},
	{"par.wait_s", "s"},
	{"par.pipeline_prep_occupancy", "frac"},
	{"par.pipeline_kernel_occupancy", "frac"},
	{"par.pipeline_post_occupancy", "frac"},
	{"opc.self_busy_frac", "frac"},
	{"opc.model_calls", "count"},
	{"litho.opc_sim_busy_frac", "frac"},
	{"litho.opc_sim_calls_per_s", "1/s"},
	{"litho.verify_busy_frac", "frac"},
	{"litho.verify_masks_per_s", "1/s"},
	{"litho.verify_masks", "count"},
	{"litho.raster_busy_frac", "frac"},
	{"litho.filterbank_builds", "count"},
	{"cdx.busy_frac", "frac"},
	{"cdx.unprinted_sites", "count"},
	{"device.el_busy_frac", "frac"},
	{"device.el_calls", "count"},
	{"cache.lookups", "count"},
	{"cache.misses", "count"},
	{"cache.evictions", "count"},
	{"cache.hit_frac", "frac"},
	{"cache.wait_frac", "frac"},
	{"cache.lookup_busy_frac", "frac"},
	{"cache.wait_busy_frac", "frac"},
	{"runtime.gc_cpu_s", "s"},
	{"trace.overhead_frac", "frac"},
	{"trace.unattributed_frac", "frac"},
}

// tracedOp is everything recorded about one traced op.
type tracedOp struct {
	design           int
	wall, cpu, gcCPU float64 // seconds
	res              opResult
	clocks           *clocks
	snap             obs.Snapshot
	events           []obs.SpanEvent
	root             obs.SpanID
}

// layers rolls one traced op up into the per-layer metrics, except
// sta.build_s and trace.overhead_frac, which the runner measures outside
// the op. procs is GOMAXPROCS.
func (t *tracedOp) layers(procs int) map[string]float64 {
	spans := map[string]float64{} // seconds per span name
	covered := 0.0                // seconds of the root's direct children
	for _, ev := range t.events {
		s := float64(ev.Dur) / 1e9
		spans[ev.Name] += s
		if ev.Parent == t.root && t.root != 0 {
			covered += s
		}
	}
	hist := map[string]float64{}
	for _, h := range t.snap.Histograms {
		hist[h.Name] = h.Sum
	}
	ctr := map[string]float64{}
	for _, c := range t.snap.Counters {
		ctr[c.Name] = float64(c.Value)
	}
	wall := t.wall
	worker := wall * float64(procs)
	opcSim, verify, device := t.clocks.opcSim.busy(), t.clocks.verify.busy(), t.clocks.device.busy()
	st := t.res.cache
	// sta.analyses_total counts full analyses only.
	analyses := ctr["sta.analyses_total"] + ctr["sta.incremental_analyses_total"]

	m := map[string]float64{
		"place.wall_frac":           spans["flow.place"] / wall,
		"sta.analyze_busy_s":        hist["sta.analyze_ns"] / 1e9,
		"sta.multicorner_wall_frac": spans["flow.multicorner"] / wall,
		"sta.montecarlo_wall_frac":  spans["flow.montecarlo"] / wall,
		"sta.mc_samples_per_s":      ratio(ctr["sta.mc_samples_total"], spans["flow.montecarlo"]),
		"sta.analyses":              analyses,
		"sta.gate_evals":            hist["sta.full_gate_evals"] + hist["sta.incremental_gate_evals"],
		"sta.incremental_frac":      ratio(ctr["sta.incremental_analyses_total"], analyses),
		"flow.new_s":                spans["op.flow.New"],
		"flow.extract_wall_frac":    spans["flow.extract"] / wall,
		"flow.orc_wall_frac":        spans["flow.orc"] / wall,
		"flow.variation_wall_frac":  spans["op.flow.BuildVariationModel"] / wall,
		"flow.windows_per_s":        ratio(float64(t.res.windows+t.res.tiles), spans["flow.extract"]+spans["flow.orc"]),
		"flow.windows":              float64(t.res.windows),
		"flow.tiles":                float64(t.res.tiles),
		"flow.clip_busy_frac":       (spans["stage.clip"] + spans["stage.canonicalize"]) / worker,
		"flow.idle_frac":            1 - t.cpu/worker,
		"par.wait_s":                (hist["par.queue_wait_ns"] + hist["par.pipeline_prep_wait_ns"] + hist["par.pipeline_kernel_wait_ns"] + hist["par.pipeline_post_wait_ns"]) / 1e9,
		"opc.self_busy_frac":        (spans["stage.opc"] - opcSim) / worker,
		"opc.model_calls":           float64(t.clocks.opcSim.calls.Load()),
		"litho.opc_sim_busy_frac":   opcSim / worker,
		"litho.opc_sim_calls_per_s": ratio(float64(t.clocks.opcSim.calls.Load()), opcSim),
		"litho.verify_busy_frac":    verify / worker,
		"litho.verify_masks_per_s":  ratio(float64(t.clocks.verify.items.Load()), verify),
		"litho.verify_masks":        float64(t.clocks.verify.items.Load()),
		"litho.raster_busy_frac":    (spans["stage.image"] - verify) / worker,
		"litho.filterbank_builds":   ctr["litho.filterbank_builds_total"],
		"cdx.busy_frac":             spans["stage.contour"] / worker,
		"cdx.unprinted_sites":       float64(t.res.unprinted),
		"device.el_busy_frac":       device / worker,
		"device.el_calls":           float64(t.clocks.device.calls.Load()),
		"cache.lookups":             float64(st.Lookups()),
		"cache.misses":              float64(st.Misses),
		"cache.evictions":           float64(st.Evictions),
		"cache.hit_frac":            ratio(float64(st.Hits), float64(st.Lookups())),
		"cache.wait_frac":           ratio(float64(st.Waits), float64(st.Lookups())),
		"cache.lookup_busy_frac":    hist["cache.lookup_ns"] / 1e9 / worker,
		"cache.wait_busy_frac":      hist["cache.singleflight_wait_ns"] / 1e9 / worker,
		"runtime.gc_cpu_s":          t.gcCPU,
		"trace.unattributed_frac":   1 - covered/wall,
	}
	for _, stage := range []string{"prep", "kernel", "post"} {
		busy := hist["par.pipeline_"+stage+"_busy_ns"]
		m["par.pipeline_"+stage+"_occupancy"] = ratio(busy, busy+hist["par.pipeline_"+stage+"_wait_ns"])
	}
	// Whatever CPU time no layer above accounts for: the flow's own code
	// between spans (ORC scans, signatures, annotation building) and the
	// benchmark's checks. Busy spans measure wall time, so under CPU
	// contention this share can fall below zero.
	busy := m["sta.analyze_busy_s"]/float64(procs)/wall + m["flow.clip_busy_frac"] + m["opc.self_busy_frac"] +
		m["litho.opc_sim_busy_frac"] + m["litho.verify_busy_frac"] + m["litho.raster_busy_frac"] +
		m["cdx.busy_frac"] + m["device.el_busy_frac"] + m["cache.lookup_busy_frac"]
	m["flow.other_busy_frac"] = t.cpu/worker - busy
	return m
}

// ratio is a/b, or 0 when b is 0 (the layer did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanRecord is one span of a traced op, as written by -spans.
type spanRecord struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func spanRecords(ops []tracedOp) []spanRecord {
	var out []spanRecord
	for i, t := range ops {
		for _, ev := range t.events {
			out = append(out, spanRecord{Op: i, Name: ev.Name, ID: uint64(ev.ID), Parent: uint64(ev.Parent),
				Start: ev.Start, End: ev.Start + ev.Dur})
		}
	}
	return out
}
