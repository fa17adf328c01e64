// Package cli holds the shared command-line plumbing of the cmd/ tools:
// uniform fatal-error diagnostics (every tool prefixes stderr with its
// name and exits non-zero) and the run-telemetry flags (-metrics, -trace,
// -cpuprofile, -ledger). Each flag names a file that is written at exit;
// the tools serve nothing. Status lines about those files go to stderr,
// because stdout carries the tools' data.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"postopc/internal/obs"
)

// crashTrace, when set by TelemetryFlags.Start (-ledger), is the tracer
// whose last crashSpans spans dumpSpans writes to stderr on every fatal
// exit and on SIGQUIT (see sigquit_unix.go).
var crashTrace *obs.Tracer

const crashSpans = 512

// dumpSpans writes the tail of the span trace that led into a failure or
// a hang; it writes nothing unless -ledger armed crashTrace.
func dumpSpans() {
	crashTrace.Dump(os.Stderr, crashSpans) //postopc:nolint:obswrite crash path: the dump IS the export boundary
}

// Fatal prints "tool: err" to stderr and exits with status 1. Every cmd/
// binary funnels its fatal paths through this so diagnostics are uniform
// across the tool set. A running CPU profile (-cpuprofile) is stopped
// first, so a failed run still leaves a readable profile. On -ledger runs
// the last spans are dumped first (dumpSpans).
func Fatal(tool string, err error) {
	pprof.StopCPUProfile()
	dumpSpans()
	fmt.Fprintln(os.Stderr, tool+":", err)
	os.Exit(1)
}

// Telemetry wires the -metrics/-trace/-cpuprofile/-ledger flags. Usage:
//
//	tel := cli.Telemetry("mytool")
//	flag.Parse()
//	tel.Start()
//	defer tel.Close()
//	... pass tel.Sink to flow.EnableObs / litho Instrument / par.Obs ...
//
// Sink is nil (all handles no-ops) unless -metrics, -trace or -ledger was
// given, so tools pass it through unconditionally. -cpuprofile alone
// leaves Sink nil: the profiled run is the uninstrumented one.
type TelemetryFlags struct {
	tool       string
	metrics    string
	trace      string
	cpuprofile string
	ledger     string

	// Sink is the run's telemetry sink; nil until Start decides the run
	// is instrumented.
	Sink *obs.Sink

	// profile is the open -cpuprofile file, closed by Close.
	profile *os.File
}

// Telemetry registers -metrics, -trace, -cpuprofile and -ledger on the
// default FlagSet. Call before flag.Parse; Start after.
func Telemetry(tool string) *TelemetryFlags {
	t := &TelemetryFlags{tool: tool}
	flag.StringVar(&t.metrics, "metrics", "",
		"write the run's metrics to this file in Prometheus text format at exit")
	flag.StringVar(&t.trace, "trace", "",
		"write the run's spans to this file as Chrome trace-event JSON (load via chrome://tracing or Perfetto)")
	flag.StringVar(&t.cpuprofile, "cpuprofile", "",
		"write a CPU profile of the run to this file (read it with go tool pprof)")
	flag.StringVar(&t.ledger, "ledger", "",
		"write the run ledger to this file as JSON lines: manifest, metrics, exact per-stage percentiles, per-window records and slowest-window exemplars (diff two with postopc-report)")
	return t
}

// Start begins the CPU profile for -cpuprofile, then creates the sink
// when -metrics, -trace or -ledger was given. -ledger additionally
// attaches the run journal, stamps the run manifest and arms the dump of
// the last spans on fatal exits and SIGQUIT. A profile file that
// cannot be created is fatal: asking for telemetry and silently not
// getting it would be worse than stopping.
func (t *TelemetryFlags) Start() {
	if t.cpuprofile != "" {
		f, err := os.Create(t.cpuprofile)
		if err != nil {
			Fatal(t.tool, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			Fatal(t.tool, err)
		}
		t.profile = f
	}
	if t.metrics == "" && t.trace == "" && t.ledger == "" {
		return
	}
	t.Sink = obs.NewSink()
	if t.ledger != "" {
		t.Sink.WithJournal(0)
		bi := obs.GetBuildInfo()
		t.Sink.Journal.SetManifest(obs.Manifest{
			Tool:        t.tool,
			Args:        os.Args[1:],
			GoVersion:   bi.GoVersion,
			GOOS:        bi.GOOS,
			GOARCH:      bi.GOARCH,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			NumCPU:      runtime.NumCPU(),
			VekLevel:    bi.VekLevel,
			VekPath:     bi.VekPath,
			CPUFeatures: bi.CPUFeatures,
			Module:      bi.Module,
		})
		crashTrace = t.Sink.Trace
		installQuitDump()
	}
}

// Close stops the CPU profile and closes its file, then exports the
// collected telemetry: the Prometheus file for -metrics, the Chrome trace
// and a per-span summary table for -trace, the run ledger for -ledger.
// Every status line goes to stderr. Call once, at the end of a successful
// run.
func (t *TelemetryFlags) Close() {
	if t.profile != nil {
		pprof.StopCPUProfile()
		if err := t.profile.Close(); err != nil {
			Fatal(t.tool, err)
		}
		fmt.Fprintln(os.Stderr, "wrote CPU profile to", t.cpuprofile)
	}
	if t.Sink == nil {
		return
	}
	if t.metrics != "" {
		t.writeFile(t.metrics, "metrics", func(w io.Writer) error {
			return obs.WritePrometheus(w, t.Sink.Metrics.Snapshot()) //postopc:nolint:obswrite Close runs after the computation; this is the export boundary
		})
	}
	if t.trace != "" {
		t.Sink.Trace.SummaryTable().Fprint(os.Stderr) //postopc:nolint:obswrite Close runs after the computation; this is the export boundary
		t.writeFile(t.trace, "trace", func(w io.Writer) error {
			return t.Sink.Trace.WriteChromeTrace(w) //postopc:nolint:obswrite Close runs after the computation; this is the export boundary
		})
	}
	if t.ledger != "" {
		t.writeFile(t.ledger, "run ledger", func(w io.Writer) error {
			return t.Sink.WriteLedger(w) //postopc:nolint:obswrite Close runs after the computation; this is the export boundary
		})
	}
}

// writeFile creates path, fills it with write and closes it; any failure
// is fatal. It reports the written file on stderr.
func (t *TelemetryFlags) writeFile(path, what string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		Fatal(t.tool, err)
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		Fatal(t.tool, werr)
	}
	fmt.Fprintln(os.Stderr, "wrote", what, "to", path)
}
