// Command postopc-lint runs the repository's static-analysis suite (see
// internal/analysis/suite) over Go packages:
//
//	postopc-lint [-json] [-timing] [packages]
//
// Packages are go-list patterns (default ./...). -json renders findings
// as SARIF 2.1.0 on stdout (CI ingests the file as a code-scanning
// artifact); the default is file:line:col: analyzer: message text.
// -timing prints the wall-clock of loading and of each analyzer to stderr.
// Packages are analyzed in one serial pass in dependency order, so
// analyzer facts (cache-key coverage, allocation-freedom) flow across
// package boundaries through one in-process fact store. The exit status
// is non-zero when any finding survives //postopc:nolint filtering, and
// when the patterns match no package.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"postopc/internal/analysis/driver"
	"postopc/internal/analysis/load"
	"postopc/internal/analysis/sarif"
	"postopc/internal/analysis/suite"
	"postopc/internal/cli"
	"postopc/internal/obs"
)

func main() {
	jsonOut := flag.Bool("json", false, "render findings as SARIF 2.1.0 on stdout")
	timing := flag.Bool("timing", false, "print load and per-analyzer wall-clock to stderr")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	t0 := obs.Monotonic()
	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		cli.Fatal("postopc-lint", err)
	}
	loadNanos := obs.Monotonic() - t0
	res, err := driver.Run(pkgs, suite.Analyzers)
	if err != nil {
		cli.Fatal("postopc-lint", err)
	}
	if *timing {
		printTiming(os.Stderr, "load", loadNanos)
		printTimings(os.Stderr, res.Timings)
	}
	if *jsonOut {
		root, _ := os.Getwd()
		if err := sarif.Write(os.Stdout, sarif.New("postopc-lint", suite.Analyzers, res.Findings, root)); err != nil {
			cli.Fatal("postopc-lint", err)
		}
	} else {
		for _, f := range res.Findings {
			fmt.Println(f)
		}
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "postopc-lint: %d finding(s)\n", len(res.Findings))
		os.Exit(1)
	}
}

// printTimings reports per-analyzer wall-clock, slowest first. Timing is
// diagnostic output only: it goes to stderr and never into SARIF, which
// stays byte-deterministic.
func printTimings(w io.Writer, ts []driver.Timing) {
	sorted := append([]driver.Timing(nil), ts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Nanos != sorted[j].Nanos {
			return sorted[i].Nanos > sorted[j].Nanos
		}
		return sorted[i].Analyzer < sorted[j].Analyzer
	})
	for _, t := range sorted {
		printTiming(w, t.Analyzer, t.Nanos)
	}
}

func printTiming(w io.Writer, name string, nanos int64) {
	fmt.Fprintf(w, "postopc-lint: timing %-12s %9.2fms\n", name, float64(nanos)/1e6)
}
