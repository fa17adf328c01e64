// Package obswrite defines the write-only-telemetry analyzer: library code
// may create telemetry handles and write through them, but never read
// metric values or branch on span identity.
//
// The observability layer's core contract (PR 5) is that telemetry observes
// a computation without being an input to it: two runs differing only in
// instrumentation must produce byte-identical results. Writing through a
// handle (Counter.Add, Histogram.Observe, starting and ending spans) keeps
// that contract; reading a value back into library code is exactly the leak
// the contract forbids — a counter read can steer an algorithm, and with it
// scheduling noise flows into results. Readers belong at the export
// boundary: package main, and the CLI's reporting sites, which carry
// explicit //postopc:nolint:obswrite suppressions.
//
// The analyzer flags, outside package main and the obs package itself:
// calls to the obs read API (Counter.Value, Gauge.Value,
// Registry.Snapshot, Tracer.Events, Tracer.SummaryTable,
// Tracer.WriteChromeTrace, WritePrometheus, plus the run-ledger read half
// — WriteLedger, ReadLedger, SummaryTables — and the crash dump,
// Tracer.Dump) and comparisons of span identifiers (branching on trace
// topology is reading it).
package obswrite

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"postopc/internal/analysis"
)

// Analyzer is the write-only-telemetry check.
var Analyzer = &analysis.Analyzer{
	Name: "obswrite",
	Doc: "flag library code that reads telemetry instead of only writing it\n\n" +
		"Telemetry is write-only inside the library: creating handles and\n" +
		"recording observations is fine, but reading values (Value, Snapshot,\n" +
		"Events, SummaryTable, ...) or comparing span IDs feeds measurements\n" +
		"back into computation and breaks the instrumentation-independence\n" +
		"contract. Readers live in package main or behind explicit nolint.",
	Run: run,
}

// readAPI is the set of obs identifiers whose call means reading telemetry.
var readAPI = map[string]bool{
	"Value":            true,
	"Snapshot":         true,
	"Events":           true,
	"SummaryTable":     true,
	"SummaryTables":    true,
	"WriteChromeTrace": true,
	"WritePrometheus":  true,
	"WriteLedger":      true,
	"ReadLedger":       true,
	"Dump":             true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" || isObsPath(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.BinaryExpr:
				checkCompare(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkCall flags calls into the obs read API.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !readAPI[sel.Sel.Name] {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || !isObsPath(obj.Pkg().Path()) {
		return
	}
	pass.Reportf(call.Pos(),
		"library code reads telemetry via %s.%s; telemetry is write-only — move the read to the export boundary (package main / internal/cli)",
		obj.Pkg().Name(), obj.Name())
}

// checkCompare flags equality tests on span identifiers: branching on trace
// topology makes the computation depend on its own instrumentation.
func checkCompare(pass *analysis.Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	if !isObsSpanType(pass.TypesInfo.TypeOf(be.X)) && !isObsSpanType(pass.TypesInfo.TypeOf(be.Y)) {
		return
	}
	pass.Reportf(be.Pos(),
		"library code compares telemetry span identifiers; span state is write-only — do not branch on trace topology")
}

// isObsSpanType reports whether t is obs.Span or obs.SpanID.
func isObsSpanType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !isObsPath(obj.Pkg().Path()) {
		return false
	}
	return obj.Name() == "Span" || obj.Name() == "SpanID"
}

// isObsPath matches the telemetry package in both the real module and
// analyzer fixtures.
func isObsPath(path string) bool {
	return path == "obs" || strings.HasSuffix(path, "/obs")
}
