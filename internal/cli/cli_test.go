package cli

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTelemetryFlagSet: the tools register exactly four telemetry flags,
// each naming an output file, and reject -pprof as an unknown flag.
func TestTelemetryFlagSet(t *testing.T) {
	orig := flag.CommandLine
	t.Cleanup(func() { flag.CommandLine = orig })
	flag.CommandLine = flag.NewFlagSet("test", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	Telemetry("test")
	var names []string
	flag.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if got, want := strings.Join(names, " "), "cpuprofile ledger metrics trace"; got != want {
		t.Fatalf("telemetry flags = %q, want %q", got, want)
	}
	if err := flag.CommandLine.Parse([]string{"-pprof", ":6060"}); err == nil {
		t.Fatal("-pprof was accepted")
	}
}

// TestMetricsPathWithColon: -metrics treats every value as a file path,
// a bare relative name with a colon included.
func TestMetricsPathWithColon(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	const path = "run:3.prom"
	tel := &TelemetryFlags{tool: "test", metrics: path}
	tel.Start()
	tel.Sink.Counter("cache.hits_total").Add(2)
	tel.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"postopc_build_info{", "postopc_cache_hits_total 2"} {
		if !bytes.Contains(b, []byte(want)) {
			t.Fatalf("%s misses %q:\n%s", path, want, b)
		}
	}
}

// TestCPUProfileAlone: -cpuprofile writes a gzip-compressed profile and
// leaves the run uninstrumented.
func TestCPUProfileAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	tel := &TelemetryFlags{tool: "test", cpuprofile: path}
	tel.Start()
	if tel.Sink != nil {
		t.Fatal("-cpuprofile alone attached a telemetry sink")
	}
	tel.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("%s is not a gzip file (%d bytes)", path, len(b))
	}
}

// TestCloseWritesNothingToStdout: with every file flag set, the status
// lines and the span summary go to stderr, and stdout, which carries the
// tools' data, stays empty.
func TestCloseWritesNothingToStdout(t *testing.T) {
	dir := t.TempDir()
	tel := &TelemetryFlags{
		tool:       "test",
		metrics:    filepath.Join(dir, "m.prom"),
		trace:      filepath.Join(dir, "t.json"),
		cpuprofile: filepath.Join(dir, "cpu.pprof"),
		ledger:     filepath.Join(dir, "run.ledger"),
	}
	stdout := capture(t, &os.Stdout)
	stderr := capture(t, &os.Stderr)
	tel.Start()
	tel.Sink.Start("stage").End()
	tel.Close()
	if out := stdout(); out != "" {
		t.Fatalf("Close wrote to stdout:\n%s", out)
	}
	errOut := stderr()
	for _, want := range []string{"wrote metrics to", "wrote trace to", "wrote CPU profile to", "wrote run ledger to", "stage"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr misses %q:\n%s", want, errOut)
		}
	}
}

// capture swaps *f for a pipe and returns a function that restores it and
// returns everything written in between.
func capture(t *testing.T, f **os.File) func() string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := *f
	*f = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		r.Close()
		done <- string(b)
	}()
	return func() string {
		*f = orig
		w.Close()
		return <-done
	}
}
