// Command postopc-lint runs the repository's static-analysis suite (see
// internal/analysis/suite) over Go packages:
//
//	postopc-lint [-json] [-timing] [packages]
//
// Packages are go-list patterns (default ./...). -json renders findings
// as SARIF 2.1.0 on stdout (CI ingests the file as a code-scanning
// artifact); the default is file:line:col: analyzer: message text.
// -timing prints per-analyzer wall-clock to stderr. Packages are analyzed
// in dependency order so analyzer facts (cache-key coverage,
// allocation-freedom) flow across package boundaries through one
// in-process fact store; output is byte-identical at any worker count.
// The exit status is non-zero when any finding survives //postopc:nolint
// filtering.
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
)

func main() {
	jsonOut := flag.Bool("json", false, "render findings as SARIF 2.1.0 on stdout")
	timing := flag.Bool("timing", false, "print per-analyzer wall-clock to stderr")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		cli.Fatal("postopc-lint", err)
	}
	res, err := driver.Run(pkgs, suite.Analyzers, driver.Options{})
	if err != nil {
		cli.Fatal("postopc-lint", err)
	}
	if *timing {
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
		fmt.Fprintf(w, "postopc-lint: timing %-12s %9.2fms\n", t.Analyzer, float64(t.Nanos)/1e6)
	}
}
