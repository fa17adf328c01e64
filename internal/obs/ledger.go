package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"postopc/internal/report"
)

// Ledger reading, summarizing and diffing — the read half of the run
// ledger, used by cmd/postopc-report and the regression gate. It lives
// in obs (the one package exempt from the obswrite analyzer) so the
// export/report boundary stays the only place telemetry is ever read.

// Ledger is a parsed run ledger.
type Ledger struct {
	Manifest  Manifest
	Fields    map[string]string
	Counters  map[string]uint64
	Gauges    map[string]float64
	Hists     []LedgerHist
	Stages    []LedgerStage
	Spans     []LedgerSpan
	Windows   []LedgerWindow
	Exemplars []LedgerExemplar
}

// LedgerHist is one histogram summary line.
type LedgerHist struct {
	Name          string
	Count         uint64
	Sum           float64
	Q50, Q95, Q99 float64
}

// LedgerStage is one exact per-stage percentile line.
type LedgerStage struct {
	Stage              string
	Count              int
	Total              int64
	P50, P95, P99, Max int64
}

// LedgerSpan is one per-span-name summary line.
type LedgerSpan struct {
	Name     string
	Count    int
	Total    int64
	P50, P99 int64
}

// LedgerWindow is one per-window record line.
type LedgerWindow struct {
	Kind   string
	Index  int
	Sig    string
	Class  string
	Batch  int
	Worker int
	NS     [NumStages]int64
	Total  int64
}

// LedgerExemplar is one top-K slowest-window line.
type LedgerExemplar struct {
	Stage string
	Rank  int
	Kind  string
	Index int
	Sig   string
	NS    int64
}

// ledgerAnyLine is the union of every line shape, for decoding.
type ledgerAnyLine struct {
	T string `json:"t"`
	Manifest
	Fields map[string]string `json:"fields"`

	Name   string  `json:"name"`
	V      float64 `json:"v"`
	Count  float64 `json:"count"`
	Sum    float64 `json:"sum"`
	Q50    float64 `json:"q50"`
	Q95    float64 `json:"q95"`
	Q99    float64 `json:"q99"`
	Stage  string  `json:"stage"`
	Total  int64   `json:"total_ns"`
	P50    int64   `json:"p50_ns"`
	P95    int64   `json:"p95_ns"`
	P99    int64   `json:"p99_ns"`
	Max    int64   `json:"max_ns"`
	Kind   string  `json:"kind"`
	Index  int     `json:"i"`
	Sig    string  `json:"sig"`
	Class  string  `json:"class"`
	Batch  int     `json:"batch"`
	Worker int     `json:"worker"`
	Rank   int     `json:"rank"`
	NS     int64   `json:"ns"`
	Clip   int64   `json:"clip_ns"`
	Canon  int64   `json:"canonicalize_ns"`
	OPC    int64   `json:"opc_ns"`
	Image  int64   `json:"image_ns"`
	Cont   int64   `json:"contour_ns"`
	Prof   int64   `json:"profile_ns"`
}

// ReadLedger parses a JSON-lines run ledger. Unknown line types are
// skipped, so the format can grow fields and sections without breaking
// older readers.
func ReadLedger(r io.Reader) (*Ledger, error) {
	l := &Ledger{
		Fields:   map[string]string{},
		Counters: map[string]uint64{},
		Gauges:   map[string]float64{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var ln ledgerAnyLine
		if err := json.Unmarshal([]byte(raw), &ln); err != nil {
			return nil, fmt.Errorf("ledger line %d: %w", lineNo, err)
		}
		switch ln.T {
		case "manifest":
			l.Manifest = ln.Manifest
			for k, v := range ln.Fields {
				l.Fields[k] = v
			}
		case "counter":
			l.Counters[ln.Name] = uint64(ln.V)
		case "gauge":
			l.Gauges[ln.Name] = ln.V
		case "hist":
			l.Hists = append(l.Hists, LedgerHist{Name: ln.Name, Count: uint64(ln.Count), Sum: ln.Sum, Q50: ln.Q50, Q95: ln.Q95, Q99: ln.Q99})
		case "stage":
			l.Stages = append(l.Stages, LedgerStage{Stage: ln.Stage, Count: int(ln.Count), Total: ln.Total, P50: ln.P50, P95: ln.P95, P99: ln.P99, Max: ln.Max})
		case "span":
			l.Spans = append(l.Spans, LedgerSpan{Name: ln.Name, Count: int(ln.Count), Total: ln.Total, P50: ln.P50, P99: ln.P99})
		case "window":
			l.Windows = append(l.Windows, LedgerWindow{
				Kind: ln.Kind, Index: ln.Index, Sig: ln.Sig, Class: ln.Class, Batch: ln.Batch, Worker: ln.Worker,
				NS:    [NumStages]int64{ln.Clip, ln.Canon, ln.OPC, ln.Image, ln.Cont, ln.Prof},
				Total: ln.Total,
			})
		case "exemplar":
			l.Exemplars = append(l.Exemplars, LedgerExemplar{Stage: ln.Stage, Rank: ln.Rank, Kind: ln.Kind, Index: ln.Index, Sig: ln.Sig, NS: ln.NS})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if l.Manifest.Tool == "" && len(l.Counters) == 0 && len(l.Windows) == 0 && len(l.Stages) == 0 {
		return nil, fmt.Errorf("not a run ledger (no manifest, metrics or windows)")
	}
	return l, nil
}

// Metrics flattens the ledger into the named scalar series the diff gate
// compares: "stage.<name>.{p50,p95,p99,max}_ns" and ".count" from the
// exact per-stage lines, "hist.<name>.{q50,q95,q99}" and ".count" from
// histogram summaries, "span.<name>.{p50,p99,total}_ns", raw
// "counter.<name>" / "gauge.<name>" values, plus derived series:
// "cache.hit_rate" and "windows.count".
func (l *Ledger) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, s := range l.Stages {
		m["stage."+s.Stage+".p50_ns"] = float64(s.P50)
		m["stage."+s.Stage+".p95_ns"] = float64(s.P95)
		m["stage."+s.Stage+".p99_ns"] = float64(s.P99)
		m["stage."+s.Stage+".max_ns"] = float64(s.Max)
		m["stage."+s.Stage+".count"] = float64(s.Count)
	}
	for _, h := range l.Hists {
		m["hist."+h.Name+".q50"] = h.Q50
		m["hist."+h.Name+".q95"] = h.Q95
		m["hist."+h.Name+".q99"] = h.Q99
		m["hist."+h.Name+".count"] = float64(h.Count)
	}
	for _, s := range l.Spans {
		m["span."+s.Name+".p50_ns"] = float64(s.P50)
		m["span."+s.Name+".p99_ns"] = float64(s.P99)
		m["span."+s.Name+".total_ns"] = float64(s.Total)
	}
	for name, v := range l.Counters {
		m["counter."+name] = float64(v)
	}
	for name, v := range l.Gauges {
		m["gauge."+name] = v
	}
	if len(l.Windows) > 0 {
		m["windows.count"] = float64(len(l.Windows))
	}
	hits := float64(l.Counters["cache.hits_total"])
	misses := float64(l.Counters["cache.misses_total"])
	if hits+misses > 0 {
		m["cache.hit_rate"] = hits / (hits + misses)
	}
	return m
}

// ReadBenchMetrics flattens a committed BENCH_*.json baseline into the
// same named-scalar form as Ledger.Metrics: "bench.<benchmark>.<path>"
// for every numeric leaf of each results entry ("bench.BenchmarkFoo.
// engine.ns_per_op"). Non-numeric leaves are skipped.
func ReadBenchMetrics(r io.Reader) (map[string]float64, error) {
	var doc struct {
		Results []map[string]interface{} `json:"results"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, err
	}
	if len(doc.Results) == 0 {
		return nil, fmt.Errorf("not a bench baseline (no results array)")
	}
	m := map[string]float64{}
	for _, res := range doc.Results {
		name, _ := res["benchmark"].(string)
		if name == "" {
			name, _ = res["name"].(string)
		}
		if name == "" {
			continue
		}
		for k, v := range res {
			if k == "benchmark" || k == "name" {
				continue
			}
			flattenBench(m, "bench."+name+"."+k, v)
		}
	}
	return m, nil
}

func flattenBench(m map[string]float64, prefix string, v interface{}) {
	switch x := v.(type) {
	case float64:
		m[prefix] = x
	case map[string]interface{}:
		for k, sub := range x {
			flattenBench(m, prefix+"."+k, sub)
		}
	}
}

// DiffOptions configure a regression diff.
type DiffOptions struct {
	// ThresholdPct is the default allowed worsening in percent (20 means a
	// metric may grow to 1.2× its baseline before it regresses).
	ThresholdPct float64
	// PerMetric overrides the threshold for specific metric names.
	PerMetric map[string]float64
	// Rename maps current-run metric names onto baseline names, so a
	// ledger series can gate against a BENCH_*.json series
	// ("stage.image.p50_ns" → "bench.BenchmarkGaussianAerial.engine.ns_per_op").
	Rename map[string]string
	// MinNS drops latency comparisons whose baseline is below this floor
	// (sub-resolution timings are noise, not signal).
	MinNS float64
}

// DiffRow is one compared metric.
type DiffRow struct {
	Metric    string
	Base, Cur float64
	DeltaPct  float64
	Threshold float64
	Regressed bool
}

// DiffResult is the outcome of comparing two metric sets.
type DiffResult struct {
	Rows        []DiffRow
	Regressions int
}

// lowerIsWorse reports whether a metric regresses by shrinking (rates)
// rather than growing (latencies, counts, allocations).
func lowerIsWorse(name string) bool {
	return strings.HasSuffix(name, "hit_rate") || strings.HasSuffix(name, "_rate")
}

// latencyMetric reports whether a metric is a nanosecond series (subject
// to the MinNS noise floor).
func latencyMetric(name string) bool {
	return strings.HasSuffix(name, "_ns") || strings.HasSuffix(name, "ns_per_op") ||
		strings.HasSuffix(name, ".q50") || strings.HasSuffix(name, ".q95") || strings.HasSuffix(name, ".q99")
}

// Diff compares the current run against a baseline over the intersection
// of their metric names (after Rename), flagging every metric that
// worsened past its threshold. Rows come back sorted: regressions first
// (largest relative worsening first), then the rest by name.
func Diff(base, cur map[string]float64, opt DiffOptions) DiffResult {
	var res DiffResult
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		baseName := name
		if opt.Rename != nil {
			if mapped, ok := opt.Rename[name]; ok {
				baseName = mapped
			}
		}
		b, ok := base[baseName]
		if !ok {
			continue
		}
		c := cur[name]
		if latencyMetric(name) && b < opt.MinNS {
			continue
		}
		row := DiffRow{Metric: name, Base: b, Cur: c}
		if baseName != name {
			row.Metric = name + "→" + baseName
		}
		row.Threshold = opt.ThresholdPct
		if t, ok := opt.PerMetric[name]; ok {
			row.Threshold = t
		}
		if b != 0 {
			row.DeltaPct = (c - b) / b * 100
		} else if c != 0 {
			row.DeltaPct = 100
		}
		if lowerIsWorse(name) {
			row.Regressed = c < b*(1-row.Threshold/100)
		} else {
			row.Regressed = c > b*(1+row.Threshold/100)
		}
		if row.Regressed {
			res.Regressions++
		}
		res.Rows = append(res.Rows, row)
	}
	sort.SliceStable(res.Rows, func(i, j int) bool {
		a, b := res.Rows[i], res.Rows[j]
		if a.Regressed != b.Regressed {
			return a.Regressed
		}
		if a.Regressed && a.DeltaPct != b.DeltaPct {
			return a.DeltaPct > b.DeltaPct
		}
		return a.Metric < b.Metric
	})
	return res
}

// Table renders the diff as a report table.
func (d DiffResult) Table() *report.Table {
	tb := report.NewTable("regression diff", "metric", "base", "current", "delta", "threshold", "verdict")
	for _, r := range d.Rows {
		verdict := "ok"
		if r.Regressed {
			verdict = "REGRESSED"
		}
		tb.Add(r.Metric,
			formatFloat(r.Base), formatFloat(r.Cur),
			fmt.Sprintf("%+.1f%%", r.DeltaPct),
			fmt.Sprintf("%.0f%%", r.Threshold),
			verdict)
	}
	return tb
}

// SummaryTables renders a parsed ledger as report tables: manifest,
// exact stage percentiles, span summary, cache classification mix, and
// the slowest exemplars — postopc-report's human view of a run.
func (l *Ledger) SummaryTables() []*report.Table {
	man := report.NewTable("run manifest", "key", "value")
	m := l.Manifest
	man.Add("tool", m.Tool)
	man.Add("go", fmt.Sprintf("%s %s/%s", m.GoVersion, m.GOOS, m.GOARCH))
	man.Add("gomaxprocs", fmt.Sprintf("%d (numcpu %d)", m.GOMAXPROCS, m.NumCPU))
	man.Add("vek", fmt.Sprintf("%s cpu=%s", m.VekLevel, m.CPUFeatures))
	man.Add("module", m.Module)
	keys := make([]string, 0, len(l.Fields))
	for k := range l.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		man.Add(k, l.Fields[k])
	}

	st := report.NewTable("stage latency (exact percentiles)", "stage", "count", "total(ms)", "p50(ms)", "p95(ms)", "p99(ms)", "max(ms)")
	for _, s := range l.Stages {
		st.AddF(3, s.Stage, s.Count, float64(s.Total)/1e6, float64(s.P50)/1e6,
			float64(s.P95)/1e6, float64(s.P99)/1e6, float64(s.Max)/1e6)
	}

	sp := report.NewTable("span summary", "span", "count", "total(ms)", "p50(ms)", "p99(ms)")
	for _, s := range l.Spans {
		sp.AddF(3, s.Name, s.Count, float64(s.Total)/1e6, float64(s.P50)/1e6, float64(s.P99)/1e6)
	}

	classes := map[string]int{}
	for _, w := range l.Windows {
		classes[w.Class]++
	}
	classNames := make([]string, 0, len(classes))
	for c := range classes {
		classNames = append(classNames, c)
	}
	sort.Strings(classNames)
	cl := report.NewTable("cache classification", "class", "windows")
	for _, c := range classNames {
		cl.AddF(0, c, classes[c])
	}

	ex := report.NewTable("slowest windows per stage", "stage", "rank", "kind", "index", "ms", "signature")
	for _, e := range l.Exemplars {
		sig := e.Sig
		if len(sig) > 16 {
			sig = sig[:16]
		}
		ex.AddF(3, e.Stage, e.Rank, e.Kind, e.Index, float64(e.NS)/1e6, sig)
	}

	return []*report.Table{man, st, sp, cl, ex}
}
