// postopc-report renders and compares run ledgers — the observatory half
// of the run-ledger pipeline. The flow tools write a ledger with -ledger;
// this command turns one into human tables and two into a regression
// verdict.
//
// Usage:
//
//	postopc-report summary run.ledger
//	postopc-report diff [-threshold pct] [-min-ns N] base.ledger new.ledger
//
// diff compares the intersection of the two ledgers' metric sets (exact
// stage percentiles, histogram quantiles, span totals, counters, cache hit
// rate) and exits non-zero when any metric worsened past the -threshold
// percentage. -min-ns drops latency rows whose baseline is below the
// floor — sub-resolution timings are noise, not signal.
package main

import (
	"flag"
	"fmt"
	"os"

	"postopc/internal/cli"
	"postopc/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "summary":
		summary(os.Args[2:])
	case "diff":
		diff(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "postopc-report: unknown command %q\n\n", os.Args[1])
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  postopc-report summary <ledger>
  postopc-report diff [-threshold pct] [-min-ns N] <base-ledger> <new-ledger>

summary renders one run ledger as tables; diff compares two run ledgers
and exits 1 when a shared metric worsened past the threshold.`)
	os.Exit(2)
}

// summary renders one ledger's tables.
func summary(args []string) {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	led := readLedgerFile(fs.Arg(0))
	for _, tb := range led.SummaryTables() {
		tb.Fprint(os.Stdout)
	}
}

// diff compares a current run against a baseline and sets the exit code.
func diff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", 20, "allowed worsening (percent)")
	minNS := fs.Float64("min-ns", 0, "ignore latency metrics whose baseline is below this floor (ns)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	base := readLedgerFile(fs.Arg(0)).Metrics()
	cur := readLedgerFile(fs.Arg(1)).Metrics()
	res := obs.Diff(base, cur, obs.DiffOptions{ThresholdPct: *threshold, MinNS: *minNS})
	if len(res.Rows) == 0 {
		fatal(fmt.Errorf("no shared metrics between %s and %s", fs.Arg(0), fs.Arg(1)))
	}
	res.Table().Fprint(os.Stdout)
	if res.Regressions > 0 {
		fmt.Fprintf(os.Stderr, "postopc-report: %d metric(s) regressed past threshold\n", res.Regressions)
		os.Exit(1)
	}
	fmt.Printf("no regressions across %d shared metric(s)\n", len(res.Rows))
}

// readLedgerFile parses a run ledger or dies.
func readLedgerFile(path string) *obs.Ledger {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	led, err := obs.ReadLedger(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %v", path, err))
	}
	return led
}

func fatal(err error) { cli.Fatal("postopc-report", err) }
