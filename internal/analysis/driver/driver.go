// Package driver runs a suite of analyzers over a set of loaded packages
// in dependency order, in parallel, with deterministic output.
//
// Ordering is the whole point. Facts flow strictly forward along import
// edges, so a package may only be analyzed once every loaded package it
// imports has been: the driver levels the import DAG (level = longest
// import chain below the package) and fans each level's (package ×
// analyzer) grid out on the internal/par worker pool. Passes within a
// level share nothing but the concurrency-safe fact store, so any
// schedule computes the same findings; the driver then imposes one
// canonical order (file, line, column, analyzer, message) so serial and
// parallel runs are byte-identical at any worker count — the same
// contract the rest of the repository holds for simulation results.
package driver

import (
	"sort"
	"sync/atomic"

	"postopc/internal/analysis"
	"postopc/internal/analysis/load"
	"postopc/internal/obs"
	"postopc/internal/par"
)

// Options configure one driver run.
type Options struct {
	// Workers bounds the worker pool; <= 0 selects GOMAXPROCS, 1 is a
	// serial run. Results are identical at any setting.
	Workers int
}

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

// Run applies every analyzer to every package, honoring import
// dependencies between the loaded packages.
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer, opts Options) (*Result, error) {
	facts := analysis.NewFacts()
	levels := level(pkgs)
	nanos := make([]int64, len(analyzers))

	type task struct {
		pkg *load.Package
		az  int
	}
	var findings []analysis.Finding
	for _, lvl := range levels {
		tasks := make([]task, 0, len(lvl)*len(analyzers))
		for _, p := range lvl {
			for ai := range analyzers {
				tasks = append(tasks, task{pkg: p, az: ai})
			}
		}
		slots := make([][]analysis.Finding, len(tasks))
		err := par.ForEach(len(tasks), func(i int) error {
			t := tasks[i]
			a := analyzers[t.az]
			t0 := obs.Monotonic()
			fs, err := analysis.RunWithFacts(a, t.pkg.Fset, t.pkg.Syntax, t.pkg.Types, t.pkg.Info, facts)
			atomic.AddInt64(&nanos[t.az], obs.Monotonic()-t0)
			if err != nil {
				return err
			}
			if !t.pkg.FactsOnly {
				slots[i] = fs
			}
			return nil
		}, par.Workers(opts.Workers))
		if err != nil {
			return nil, err
		}
		for _, fs := range slots {
			findings = append(findings, fs...)
		}
	}
	sortFindings(findings)
	res := &Result{Findings: findings}
	for ai, a := range analyzers {
		res.Timings = append(res.Timings, Timing{Analyzer: a.Name, Nanos: nanos[ai]})
	}
	return res, nil
}

// sortFindings imposes the canonical output order: position, then
// analyzer, then message. Per-pass findings arrive position-sorted
// already; the global sort makes interleaving across packages and
// analyzers schedule-independent.
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

// level topologically layers the packages: level k holds every package
// whose longest in-set import chain has length k. Packages within a level
// are mutually independent and sorted by import path; import cycles
// cannot occur in valid Go, but a defensive cap keeps malformed input
// from looping forever.
func level(pkgs []*load.Package) [][]*load.Package {
	byPath := make(map[string]*load.Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	depth := make(map[string]int, len(pkgs))
	var depthOf func(p *load.Package, guard int) int
	depthOf = func(p *load.Package, guard int) int {
		if d, ok := depth[p.ImportPath]; ok {
			return d
		}
		d := 0
		if guard < len(pkgs) {
			for _, imp := range p.Imports {
				dep, ok := byPath[imp]
				if !ok {
					continue // outside the loaded set: facts cannot flow from it
				}
				if dd := depthOf(dep, guard+1) + 1; dd > d {
					d = dd
				}
			}
		}
		depth[p.ImportPath] = d
		return d
	}
	maxDepth := 0
	for _, p := range pkgs {
		if d := depthOf(p, 0); d > maxDepth {
			maxDepth = d
		}
	}
	levels := make([][]*load.Package, maxDepth+1)
	for _, p := range pkgs {
		levels[depth[p.ImportPath]] = append(levels[depth[p.ImportPath]], p)
	}
	for _, lvl := range levels {
		sort.Slice(lvl, func(i, j int) bool { return lvl[i].ImportPath < lvl[j].ImportPath })
	}
	return levels
}
