// Package parcapture defines an analyzer for closures handed to
// par.ForEach and par.ForEachWorker, the bounded worker pool every hot
// loop runs on.
//
// The pool's determinism contract is that workers communicate only through
// index-disjoint slots: fn(i) may write exts[i] but nothing shared. Two
// regressions break it silently — writing a captured variable (a data race
// that the race detector only catches when the schedule cooperates), and
// indexing shared state by something other than the closure's own index
// parameter (workers overwrite each other's slots). Both are purely
// syntactic properties of the closure, so they are enforced here instead
// of in the occasional -race run.
//
// A ForEachWorker closure, fn(w, i), may index by either parameter: one
// goroutine owns each worker slot w for the whole run, so per-slot state
// such as state[w] is as disjoint as out[i].
//
// Only function literals are checked. A method value passed as the work
// function, such as r.batch in internal/flow/batch.go, stays unchecked.
package parcapture

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"postopc/internal/analysis"
)

// Analyzer is the parcapture check.
var Analyzer = &analysis.Analyzer{
	Name: "parcapture",
	Doc: "flag par.ForEach and par.ForEachWorker closures that write shared state non-index-disjointly\n\n" +
		"A closure passed to par.ForEach or par.ForEachWorker runs concurrently:\n" +
		"assignments to captured variables race, and writes to shared slices or\n" +
		"maps must be indexed by the closure's own index parameter (or, for\n" +
		"ForEachWorker, its worker-slot parameter). Referencing an enclosing\n" +
		"loop's iteration variable inside the closure is flagged because it is\n" +
		"almost always a stale copy of what should be the index parameter.\n" +
		"Method values passed as the work function are not checked.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		var loops []ast.Stmt // enclosing for/range statements, innermost last
		var walk func(n ast.Node)
		walk = func(n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					loops = append(loops, n.(ast.Stmt))
					if f, ok := n.(*ast.ForStmt); ok {
						walk(f.Body)
					} else {
						walk(n.(*ast.RangeStmt).Body)
					}
					loops = loops[:len(loops)-1]
					return false
				case *ast.CallExpr:
					if name, fl := forEachClosure(pass, n); fl != nil {
						checkClosure(pass, name, fl, loops)
					}
				}
				return true
			})
		}
		walk(file)
	}
	return nil
}

// forEachClosure returns the qualified name ("par.ForEach" or
// "par.ForEachWorker") and the function-literal work argument of a pool
// call, or a nil literal.
func forEachClosure(pass *analysis.Pass, call *ast.CallExpr) (string, *ast.FuncLit) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "par" ||
		(fn.Name() != "ForEach" && fn.Name() != "ForEachWorker") {
		return "", nil
	}
	if len(call.Args) < 2 {
		return "", nil
	}
	fl, _ := call.Args[1].(*ast.FuncLit)
	return "par." + fn.Name(), fl
}

// checkClosure enforces the index-disjointness contract on one work
// closure passed to the pool function name. loops are the for/range
// statements lexically enclosing the call.
func checkClosure(pass *analysis.Pass, name string, fl *ast.FuncLit, loops []ast.Stmt) {
	idx := indexParams(pass, fl)
	loopVars := loopVariables(pass, loops)
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				checkWrite(pass, name, fl, idx, lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, name, fl, idx, n.X)
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[n]; obj != nil && loopVars[obj] {
				pass.Reportf(n.Pos(), "%s closure references enclosing loop variable %s; derive work from the closure's index parameter instead", name, n.Name)
			}
		}
		return true
	})
}

// checkWrite validates one assignment target inside the closure; idx are
// the parameters an index may be derived from.
func checkWrite(pass *analysis.Pass, name string, fl *ast.FuncLit, idx []types.Object, lhs ast.Expr) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		if obj := pass.TypesInfo.ObjectOf(lhs); obj != nil && capturedBy(fl, obj) {
			pass.Reportf(lhs.Pos(), "%s closure writes captured variable %s — a data race; write into an index-disjoint slot instead", name, lhs.Name)
		}
	case *ast.IndexExpr:
		base, ok := ast.Unparen(lhs.X).(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.TypesInfo.ObjectOf(base)
		if obj == nil || !capturedBy(fl, obj) {
			return
		}
		if !mentionsAny(pass, lhs.Index, idx) {
			pass.Reportf(lhs.Pos(), "%s closure writes shared %s at an index not derived from the closure's index parameter; concurrent workers may collide", name, base.Name)
		}
	case *ast.SelectorExpr:
		if base, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
			if obj := pass.TypesInfo.ObjectOf(base); obj != nil && capturedBy(fl, obj) {
				pass.Reportf(lhs.Pos(), "%s closure writes field of captured %s — a data race; write into an index-disjoint slot instead", name, base.Name)
			}
		}
	case *ast.StarExpr:
		if base, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
			if obj := pass.TypesInfo.ObjectOf(base); obj != nil && capturedBy(fl, obj) {
				pass.Reportf(lhs.Pos(), "%s closure writes through captured pointer %s — a data race; write into an index-disjoint slot instead", name, base.Name)
			}
		}
	}
}

// indexParams returns the objects of the closure's parameters: the item
// index of fn(i), or the worker slot and item index of fn(w, i). Either is
// an index-disjoint key.
func indexParams(pass *analysis.Pass, fl *ast.FuncLit) []types.Object {
	var objs []types.Object
	if fl.Type.Params == nil {
		return nil
	}
	for _, field := range fl.Type.Params.List {
		for _, id := range field.Names {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil && id.Name != "_" {
				objs = append(objs, obj)
			}
		}
	}
	return objs
}

// loopVariables collects the iteration-variable objects of the enclosing
// loops.
func loopVariables(pass *analysis.Pass, loops []ast.Stmt) map[types.Object]bool {
	vars := map[types.Object]bool{}
	add := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				vars[obj] = true
			}
		}
	}
	for _, l := range loops {
		switch l := l.(type) {
		case *ast.RangeStmt:
			add(l.Key)
			add(l.Value)
		case *ast.ForStmt:
			if init, ok := l.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				for _, lhs := range init.Lhs {
					add(lhs)
				}
			}
		}
	}
	return vars
}

// capturedBy reports whether obj is declared outside the closure (and is a
// variable — captured constants and functions are harmless).
func capturedBy(fl *ast.FuncLit, obj types.Object) bool {
	if _, ok := obj.(*types.Var); !ok {
		return false
	}
	return obj.Pos() < fl.Pos() || obj.Pos() >= fl.End()
}

// mentionsAny reports whether expr references any of objs.
func mentionsAny(pass *analysis.Pass, expr ast.Expr, objs []types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && slices.Contains(objs, pass.TypesInfo.ObjectOf(id)) {
			found = true
		}
		return !found
	})
	return found
}
