// Package detrand defines an analyzer that forbids ambient sources of
// nondeterminism in non-test library code: the global math/rand functions
// (including rand.Seed) and time.Now.
//
// The flow's parallel Monte Carlo is byte-identical to its serial run only
// because every worker draws from a rand.Rand it constructed from an
// explicit per-sample seed. A single call to a global rand top-level
// function (which draws from the shared, lock-protected global source) or
// to time.Now (wall-clock input) silently breaks that reproducibility
// contract, and the failure shows up later as a flaky benchmark rather
// than a build error. This analyzer turns it into a build error.
package detrand

import (
	"go/ast"
	"go/types"

	"postopc/internal/analysis"
)

// Analyzer is the detrand check.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "forbid global math/rand functions and time.Now in library code\n\n" +
		"Every RNG must be locally constructed via rand.New(rand.NewSource(seed))\n" +
		"so parallel runs replay byte-identically; wall-clock time must be read\n" +
		"at the CLI boundary (package main) and passed in.",
	Run: run,
}

// constructors are the math/rand top-level functions that build local
// generators rather than drawing from the global source.
var constructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				// Methods on a locally constructed *rand.Rand are exactly
				// the sanctioned pattern.
				return true
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				if fn.Name() == "Seed" {
					pass.Reportf(call.Pos(), "rand.Seed reseeds the shared global source; construct a local rand.New(rand.NewSource(seed)) instead")
				} else if !constructors[fn.Name()] {
					pass.Reportf(call.Pos(), "global rand.%s draws from the shared source and breaks parallel==serial determinism; use a locally constructed rand.New(rand.NewSource(seed))", fn.Name())
				}
			case "time":
				if fn.Name() == "Now" && pass.Pkg.Name() != "main" {
					pass.Reportf(call.Pos(), "time.Now in library code makes results depend on the wall clock; read time at the CLI boundary and pass it in")
				}
			}
			return true
		})
	}
	return nil
}

// calleeFunc resolves the called function object, if it is a plain or
// package-qualified function reference.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}
