// Package cli holds the shared command-line plumbing of the cmd/ tools:
// uniform fatal-error diagnostics (every tool prefixes stderr with its
// name and exits non-zero) and the run-telemetry flags (-metrics, -trace,
// -pprof, -ledger) that attach an obs.Sink to a run and export it at exit.
package cli

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"runtime"
	"time"

	"postopc/internal/obs"
)

// flightRing, when set by TelemetryFlags.Start, is dumped to stderr on
// every fatal exit (and on SIGQUIT, see sigquit_unix.go): the last spans
// before the crash, straight from the lock-free ring.
var flightRing *obs.Flight

// Fatal prints "tool: err" to stderr and exits with status 1. Every cmd/
// binary funnels its fatal paths through this so diagnostics are uniform
// across the tool set. When a flight recorder is live (-ledger), its ring
// is dumped first — the tail of the span trace that led to the failure.
func Fatal(tool string, err error) {
	if flightRing != nil {
		flightRing.Dump(os.Stderr) //postopc:nolint:obswrite crash path: the dump IS the export boundary
	}
	fmt.Fprintln(os.Stderr, tool+":", err)
	os.Exit(1)
}

// Fatalf is Fatal with a format string.
func Fatalf(tool, format string, args ...interface{}) {
	Fatal(tool, fmt.Errorf(format, args...))
}

// Telemetry wires the -metrics/-trace/-pprof/-ledger flags to an
// obs.Sink. Usage:
//
//	tel := cli.Telemetry("mytool")
//	flag.Parse()
//	tel.Start()
//	defer tel.Close()
//	... pass tel.Sink to flow.EnableObs / litho Instrument / par.Obs ...
//
// Sink is nil (all handles no-ops) when none of the flags were given, so
// tools pass it through unconditionally.
type TelemetryFlags struct {
	tool    string
	metrics string
	trace   string
	pprof   string
	ledger  string

	// Sink is the run's telemetry sink; nil until Start decides the run
	// is instrumented.
	Sink *obs.Sink

	// srv is the live -metrics server, shut down gracefully by Close.
	srv *http.Server
}

// Telemetry registers -metrics, -trace, -pprof and -ledger on the default
// FlagSet. Call before flag.Parse; Start after.
func Telemetry(tool string) *TelemetryFlags {
	t := &TelemetryFlags{tool: tool}
	flag.StringVar(&t.metrics, "metrics", "",
		"export metrics: a file path writes Prometheus text at exit; \":port\" serves it live at /metrics")
	flag.StringVar(&t.trace, "trace", "",
		"write the run's spans to this file as Chrome trace-event JSON (load via chrome://tracing or Perfetto)")
	flag.StringVar(&t.pprof, "pprof", "",
		"serve net/http/pprof on \":port\" for live CPU/heap profiling")
	flag.StringVar(&t.ledger, "ledger", "",
		"write the run ledger to this file as JSON lines: manifest, metrics, exact per-stage percentiles, per-window records and slowest-window exemplars (diff two with postopc-report)")
	return t
}

// Start creates the sink when any telemetry flag was given and launches
// the -metrics/-pprof HTTP servers. -ledger additionally attaches the run
// journal and a flight-recorder ring (dumped on fatal exits and SIGQUIT)
// and stamps the run manifest. Server failures (e.g. a busy port) are
// fatal: asking for telemetry and silently not getting it would be worse
// than stopping.
func (t *TelemetryFlags) Start() {
	if t.pprof != "" {
		go func() {
			if err := http.ListenAndServe(t.pprof, nil); err != nil {
				Fatalf(t.tool, "pprof server: %v", err)
			}
		}()
	}
	if t.metrics == "" && t.trace == "" && t.ledger == "" {
		return
	}
	t.Sink = obs.NewSink()
	if t.ledger != "" {
		t.Sink.WithJournal(0).WithFlightRecorder(512)
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
		flightRing = t.Sink.Flight
		installQuitDump()
	}
	if isPort(t.metrics) {
		t.srv = obs.NewServer(t.metrics, t.Sink.Metrics)
		go func() {
			if err := t.srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				Fatalf(t.tool, "metrics server: %v", err)
			}
		}()
	}
}

// Close exports the collected telemetry: the Prometheus file for a
// file-valued -metrics, the Chrome trace for -trace, the run ledger for
// -ledger, and a per-span summary table on stdout when tracing was on.
// The live -metrics server, if any, is drained gracefully. Call once, at
// the end of a successful run.
func (t *TelemetryFlags) Close() {
	if t.Sink == nil {
		return
	}
	obs.ShutdownServer(t.srv, 2*time.Second)
	if t.metrics != "" && !isPort(t.metrics) {
		f, err := os.Create(t.metrics)
		if err != nil {
			Fatal(t.tool, err)
		}
		werr := obs.WritePrometheus(f, t.Sink.Metrics.Snapshot()) //postopc:nolint:obswrite Close runs after the computation; this is the export boundary
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			Fatal(t.tool, werr)
		}
		fmt.Println("wrote metrics to", t.metrics)
	}
	if t.trace != "" {
		f, err := os.Create(t.trace)
		if err != nil {
			Fatal(t.tool, err)
		}
		werr := t.Sink.Trace.WriteChromeTrace(f) //postopc:nolint:obswrite Close runs after the computation; this is the export boundary
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			Fatal(t.tool, werr)
		}
		t.Sink.Trace.SummaryTable().Fprint(os.Stdout) //postopc:nolint:obswrite Close runs after the computation; this is the export boundary
		fmt.Println("wrote trace to", t.trace)
	}
	if t.ledger != "" {
		f, err := os.Create(t.ledger)
		if err != nil {
			Fatal(t.tool, err)
		}
		werr := t.Sink.WriteLedger(f) //postopc:nolint:obswrite Close runs after the computation; this is the export boundary
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			Fatal(t.tool, werr)
		}
		fmt.Println("wrote run ledger to", t.ledger)
	}
}

// isPort reports whether the -metrics value selects the live server
// (":8080", "localhost:8080") rather than an output file.
func isPort(s string) bool {
	if s == "" {
		return false
	}
	if s[0] == ':' {
		return true
	}
	for i := 0; i < len(s); i++ {
		if s[i] == '/' || s[i] == os.PathSeparator {
			return false
		}
		if s[i] == ':' {
			return true
		}
	}
	return false
}
