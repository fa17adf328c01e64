// Command postopc-bench is the end-to-end benchmark of the post-OPC timing
// flow. One run sets up several designs of a workload from the seed, runs
// ops back to back, cycling through the designs, each from a fresh
// flow.Flow for the measured phase (one closed-loop client, GOMAXPROCS
// workers), checks that every op's results are bit-identical to the other
// ops on its design and to one op on a reference schedule, and prints the
// end-to-end metrics; with -trace 1 it adds a traced pass and prints the
// per-layer metrics instead. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"

	"postopc/internal/litho"
	"postopc/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("postopc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: signoff_abbe, fullchip_strip or timing_mc")
	seed := fs.Int64("seed", 3, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "length of the measured phase, in seconds")
	trace := fs.Int("trace", 0, "1 adds the traced pass and reports per-layer metrics instead of end-to-end ones")
	spans := fs.String("spans", "", "with -trace 1, write the traced ops' spans to this JSON file")
	compare := fs.Bool("compare", false, "compare two files of run outputs against the bounds in BENCHMARK.json: -compare a.log b.log")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: postopc-bench -compare a.log b.log")
			return 2
		}
		return compareLogs("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "postopc-bench: -trace must be 0 or 1")
		return 2
	}
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "postopc-bench:", err)
		return 2
	}
	opt := runOptions{seed: *seed, seconds: *seconds, trace: *trace == 1, designs: 4}
	rep, err := runWorkload(w, opt)
	if err != nil {
		fmt.Fprintln(stderr, "postopc-bench:", err)
		return 1
	}
	if *spans != "" {
		if err := writeSpans(*spans, rep.traced); err != nil {
			fmt.Fprintln(stderr, "postopc-bench:", err)
			return 1
		}
	}
	if err := rep.print(stdout, *name, w, opt); err != nil {
		fmt.Fprintln(stderr, "postopc-bench:", err)
		return 1
	}
	return 0
}

// runOptions shape one run.
type runOptions struct {
	seed    int64
	seconds float64 // measured phase; split evenly with the traced pass
	trace   bool
	designs int // designs set up from the seed; ops cycle through them
}

// designSeed is the seed of a run's k-th design: distinct run seeds give
// disjoint sets of designs.
func designSeed(seed int64, designs, k int) int64 { return seed*int64(designs) + int64(k) }

// designRuns is what the timed ops measured on one design.
type designRuns struct {
	digest           string // the first op's; every later op must match
	wall, cpu, alloc []float64
}

// runReport is everything one run measured.
type runReport struct {
	setupS, graphBuildS []float64
	designs             []designRuns
	traced              []tracedOp
	attempted, failed   int
	failures            []string
	peakRSSBytes        float64
	procs               int
}

// runWorkload sets up opt.designs designs, then runs timed ops cycling
// through them, one reference op and, with opt.trace, traced ops. An op
// that errors, fails an invariant or digests differently from its design's
// first op counts as failed; a set-up error ends the run.
func runWorkload(w workload, opt runOptions) (*runReport, error) {
	r := &runReport{procs: runtime.GOMAXPROCS(0), designs: make([]designRuns, opt.designs)}
	designs := make([]design, opt.designs)
	for k := range designs {
		runtime.GC()
		t0 := time.Now()
		d, build, err := w.setup(designSeed(opt.seed, opt.designs, k))
		if err != nil {
			return nil, fmt.Errorf("set-up of design %d: %w", k, err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		r.graphBuildS = append(r.graphBuildS, build.Seconds())
		designs[k] = d
	}
	budget := opt.seconds
	if opt.trace {
		budget /= 2
	}
	// Every design gets a timed op, even past the budget; after that an op
	// starts only if it should end within the budget.
	var walls []float64 // every timed op's, to predict the next op's length
	start := time.Now()
	for n := 0; n < len(designs) || time.Since(start).Seconds()+median(walls) <= budget; n++ {
		k := n % len(designs)
		if s, ok := r.runOp(designs[k], k, &opCtx{}); ok {
			dr := &r.designs[k]
			dr.wall, dr.cpu, dr.alloc = append(dr.wall, s.wall), append(dr.cpu, s.cpu), append(dr.alloc, s.alloc)
			walls = append(walls, s.wall)
		}
	}
	r.runOp(designs[0], 0, &opCtx{ref: true})
	if opt.trace {
		start = time.Now()
		for n := 0; n == 0 || time.Since(start).Seconds()+median(walls) <= budget; n++ {
			k := n % len(designs)
			o := &opCtx{sink: obs.NewSink(), clocks: &clocks{}}
			s, ok := r.runOp(designs[k], k, o)
			// Detach the process-wide pool counters from this op's sink.
			litho.InstrumentPools(nil)
			if !ok {
				continue
			}
			r.traced = append(r.traced, tracedOp{
				design: k, wall: s.wall, cpu: s.cpu, gcCPU: s.gcCPU, res: s.res, clocks: o.clocks,
				snap: o.sink.Metrics.Snapshot(), events: o.sink.Trace.Events(), root: o.root.ID(),
			})
		}
		r.checkCounts()
	}
	r.peakRSSBytes = float64(rusage().Maxrss) * 1024 // Linux reports kilobytes
	return r, nil
}

// opSample is one op's measurement.
type opSample struct {
	wall, cpu, gcCPU, alloc float64
	res                     opResult
}

// runOp runs and measures one op on design k after a full GC, so every op
// starts from an empty heap like a new process, and records a failure when
// it errors or its digest differs from the design's first op. ok reports
// success.
func (r *runReport) runOp(d design, k int, o *opCtx) (s opSample, ok bool) {
	r.attempted++
	runtime.GC()
	a0, g0 := readRuntime()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	o.root = o.sink.Start("op")
	res, err := d.op(o)
	o.root.End()
	s.wall = time.Since(t0).Seconds()
	s.cpu = cpuSeconds() - cpu0
	a1, g1 := readRuntime()
	s.alloc, s.gcCPU, s.res = a1-a0, g1-g0, res
	kind := "timed"
	switch {
	case o.ref:
		kind = "reference"
	case o.sink != nil:
		kind = "traced"
	}
	dr := &r.designs[k]
	switch {
	case err != nil:
		return s, r.fail(fmt.Sprintf("%s op %d on design %d: %v", kind, r.attempted, k, err))
	case dr.digest == "":
		dr.digest = res.digest
	case res.digest != dr.digest:
		return s, r.fail(fmt.Sprintf("%s op %d on design %d: digest %s differs from the first op's %s", kind, r.attempted, k, res.digest, dr.digest))
	}
	return s, true
}

func (r *runReport) fail(msg string) bool {
	r.failed++
	r.failures = append(r.failures, msg)
	return false
}

// checkCounts records a failure for every per-layer count that differs
// between traced ops on one design: counts describe work, which is the
// same in every op on the same inputs.
func (r *runReport) checkCounts() {
	first := map[int]map[string]float64{}
	for i, t := range r.traced {
		m := t.layers(r.procs)
		f, ok := first[t.design]
		if !ok {
			first[t.design] = m
			continue
		}
		for _, d := range perLayer {
			if d.unit == "count" && m[d.name] != f[d.name] {
				r.fail(fmt.Sprintf("traced op %d on design %d: %s = %v, its first traced op had %v", i+1, t.design, d.name, m[d.name], f[d.name]))
			}
		}
	}
}

// digest combines the designs' digests into the run's.
func (r *runReport) digest() string {
	d := newDigest()
	for _, dr := range r.designs {
		d.str(dr.digest)
	}
	return d.sum()
}

// perDesign averages, over the designs that have values, the median of
// each design's values: the median resists a slow op, and the mean spreads
// the result over several inputs, so it moves little from seed to seed.
func perDesign(vals [][]float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if len(v) > 0 {
			sum += median(v)
			n++
		}
	}
	return ratio(sum, float64(n))
}

// metrics returns the run's reported metrics: end-to-end ones for an
// untraced run, per-layer ones for a traced run.
func (r *runReport) metrics(trace bool) map[string]float64 {
	k := len(r.designs)
	walls := make([][]float64, k)
	if !trace {
		cpus, allocs := make([][]float64, k), make([][]float64, k)
		for i, dr := range r.designs {
			walls[i], cpus[i], allocs[i] = dr.wall, dr.cpu, dr.alloc
		}
		return map[string]float64{
			"setup_s":     median(r.setupS),
			"flow_s":      perDesign(walls),
			"cpu_s":       perDesign(cpus),
			"alloc_mb":    perDesign(allocs) / 1e6,
			"peak_rss_mb": r.peakRSSBytes / 1e6,
		}
	}
	per := map[string][][]float64{}
	for _, d := range perLayer {
		per[d.name] = make([][]float64, k)
	}
	tracedWalls := make([][]float64, k)
	for _, t := range r.traced {
		for name, v := range t.layers(r.procs) {
			per[name][t.design] = append(per[name][t.design], v)
		}
		tracedWalls[t.design] = append(tracedWalls[t.design], t.wall)
	}
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = perDesign(per[d.name])
	}
	m["sta.build_s"] = median(r.graphBuildS)
	// Overhead compares each traced design with its own untraced ops.
	overhead := make([][]float64, k)
	for i, tw := range tracedWalls {
		if len(tw) > 0 && len(r.designs[i].wall) > 0 {
			overhead[i] = []float64{median(tw)/median(r.designs[i].wall) - 1}
		}
	}
	m["trace.overhead_frac"] = perDesign(overhead)
	return m
}

// recordedDigests holds the default-seed result digest of each workload.
//
//go:embed digests.json
var recordedDigests []byte

// digestNote compares the run's digest with the recorded one. A mismatch
// is reported, not failed: a change that alters results on purpose records
// the new digest.
func digestNote(workload, digest string, seed int64) string {
	var rec struct {
		Seed    int64             `json:"seed"`
		Digests map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(recordedDigests, &rec); err != nil {
		return "recorded digests unreadable: " + err.Error()
	}
	want, ok := rec.Digests[workload]
	switch {
	case seed != rec.Seed || !ok:
		return fmt.Sprintf("no recorded digest for seed %d", seed)
	case digest == want:
		return fmt.Sprintf("matches the recorded seed-%d digest", seed)
	}
	return fmt.Sprintf("DIFFERS from the recorded seed-%d digest %s", seed, want)
}

// print writes the run summary, an identity line and, last, the result
// object. It fails, before writing the result, on a value JSON cannot hold.
func (r *runReport) print(out io.Writer, name string, w workload, opt runOptions) error {
	var walls []float64
	for _, dr := range r.designs {
		walls = append(walls, dr.wall...)
	}
	q1, q3 := quartiles(walls)
	digest := r.digest()
	fmt.Fprintf(out, "workload %s: %s\n", name, w.describe())
	fmt.Fprintf(out, "setup_s is the median of %d set-ups; flow_s, cpu_s and alloc_mb average the per-design medians of n=%d timed ops over %d designs\n",
		len(r.setupS), len(walls), len(r.designs))
	fmt.Fprintf(out, "op wall time: q1 %.3fs, median %.3fs, q3 %.3fs; 1 reference op, %d traced ops; %d of %d ops failed\n",
		q1, median(walls), q3, len(r.traced), r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintln(out, "FAIL:", f)
	}
	fmt.Fprintf(out, "digest %s: %s\n", digest, digestNote(name, digest, opt.seed))

	bi := obs.GetBuildInfo()
	id := map[string]any{
		"workload": name, "seed": opt.seed, "seconds": opt.seconds, "trace": opt.trace,
		"gomaxprocs": r.procs, "num_cpu": runtime.NumCPU(),
		"go_version": bi.GoVersion, "goos": bi.GOOS, "goarch": bi.GOARCH,
		"vek_level": bi.VekLevel, "cpu_features": bi.CPUFeatures, "module": bi.Module,
		"vcs_revision": vcsRevision(),
		"designs":      len(r.designs), "timed_ops": len(walls), "traced_ops": len(r.traced),
		"digest": digest,
	}
	line, err := json.Marshal(map[string]any{"identity": id})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))

	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	vals := r.metrics(opt.trace)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, d := range defs {
		ms[d.name] = value{vals[d.name], d.unit}
	}
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, ms})
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	fmt.Fprintln(out, string(res))
	return nil
}

func vcsRevision() string {
	rev, modified := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
	}
	return rev + modified
}

func writeSpans(path string, ops []tracedOp) error {
	b, err := json.Marshal(spanRecords(ops))
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid buffer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// readRuntime returns the bytes allocated so far and the CPU seconds spent
// in the garbage collector so far.
func readRuntime() (allocBytes, gcCPU float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64()
}
