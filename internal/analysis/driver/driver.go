// Package driver runs a suite of analyzers over a set of loaded packages
// in one serial pass, with deterministic output.
//
// Facts flow strictly forward along import edges, so a package may only
// be analyzed once every loaded package it imports has been. The loader
// returns packages in `go list -deps` order, which lists a package only
// after everything it imports, so the driver walks that slice once:
// packages in loader order, analyzers in suite order. It then imposes one
// canonical order on the findings (file, line, column, analyzer, message),
// so the output does not depend on which package a finding came from.
package driver

import (
	"sort"

	"postopc/internal/analysis"
	"postopc/internal/analysis/load"
	"postopc/internal/obs"
)

// Timing is the accumulated wall-clock of one analyzer across every
// package of a run. Purely informational: it never enters findings or
// SARIF output, which stay deterministic.
type Timing struct {
	// Analyzer names the check.
	Analyzer string
	// Nanos is the summed per-pass wall-clock in nanoseconds.
	Nanos int64
}

// Result is the outcome of one driver run.
type Result struct {
	// Findings are every surviving finding, in canonical order.
	Findings []analysis.Finding
	// Timings mirror the analyzer list, in suite order.
	Timings []Timing
}

// Run applies every analyzer to every package. pkgs must be in dependency
// order (every loaded import before its importer), as load.Packages
// returns them.
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer) (*Result, error) {
	facts := analysis.NewFacts()
	res := &Result{Timings: make([]Timing, len(analyzers))}
	for ai, a := range analyzers {
		res.Timings[ai].Analyzer = a.Name
	}
	for _, p := range pkgs {
		for ai, a := range analyzers {
			t0 := obs.Monotonic()
			fs, err := analysis.RunWithFacts(a, p.Fset, p.Syntax, p.Types, p.Info, facts)
			res.Timings[ai].Nanos += obs.Monotonic() - t0
			if err != nil {
				return nil, err
			}
			if !p.FactsOnly {
				res.Findings = append(res.Findings, fs...)
			}
		}
	}
	sortFindings(res.Findings)
	return res, nil
}

// sortFindings imposes the canonical output order: position, then
// analyzer, then message.
func sortFindings(fs []analysis.Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		switch {
		case a.Pos.Filename != b.Pos.Filename:
			return a.Pos.Filename < b.Pos.Filename
		case a.Pos.Line != b.Pos.Line:
			return a.Pos.Line < b.Pos.Line
		case a.Pos.Column != b.Pos.Column:
			return a.Pos.Column < b.Pos.Column
		case a.Analyzer != b.Analyzer:
			return a.Analyzer < b.Analyzer
		default:
			return a.Message < b.Message
		}
	})
}
