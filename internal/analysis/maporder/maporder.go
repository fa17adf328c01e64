// Package maporder defines an analyzer that flags ordered output built by
// ranging over a map without a subsequent deterministic sort.
//
// Go randomizes map iteration order, so a `for k := range m` loop that
// appends to a slice, adds report rows, or writes to an output stream
// produces a different ordering every run. This is exactly the bug class
// fixed by hand in flow.Run (extraction results keyed by gate name were
// collected into the Tagged list in map order); the fix — append, then
// sort — is recognized by this analyzer and not flagged.
//
// Floating-point accumulation is the same bug in numeric form: float
// addition is not associative, so `sum += v` over a map gives a sum whose
// low bits depend on the iteration order. A compound assignment (+=, -=,
// *=, /=) to a float or complex value declared outside the loop is
// flagged. Integer accumulation is exact and stays allowed, and so is a
// target indexed by the loop's key (acc[k] /= n), which only one iteration
// touches.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"postopc/internal/analysis"
)

// Analyzer is the maporder check.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag map-range loops that build ordered output without sorting\n\n" +
		"A range over a map observes a randomized order. Appending to a slice\n" +
		"is allowed only when the slice is deterministically sorted later in\n" +
		"the same block; report-row building and stream writes inside the loop\n" +
		"are always flagged because their order is fixed at emission time, and\n" +
		"so is floating-point accumulation into a value declared outside the\n" +
		"loop, whose rounding depends on the order.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			default:
				return true
			}
			for i, stmt := range list {
				rng, ok := stmt.(*ast.RangeStmt)
				if !ok || !rangesOverMap(pass, rng) {
					continue
				}
				checkMapRange(pass, rng, list[i+1:])
			}
			return true
		})
	}
	return nil
}

// rangesOverMap reports whether the range statement iterates a map.
func rangesOverMap(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRange inspects one map-range body. rest holds the statements that
// follow the range in its enclosing block, searched for sorts that launder
// appended slices back to a deterministic order.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, rest []ast.Stmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure defined in the body runs later, in whatever order
			// its caller imposes; not this analyzer's concern.
			return false
		case *ast.AssignStmt:
			if target := appendTarget(pass, n); target != nil {
				obj := pass.TypesInfo.ObjectOf(target)
				if obj == nil || obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
					return true // slice local to the loop body
				}
				if !sortedAfter(pass, rest, obj) {
					pass.Reportf(n.Pos(), "append to %s inside a map-range loop without a deterministic sort afterwards; map iteration order is randomized", target.Name)
				}
			}
			if target := floatAccumulator(pass, n, rng); target != nil {
				pass.Reportf(n.Pos(), "floating-point %s into %s inside a map-range loop rounds differently in each randomized map order; accumulate over sorted keys", n.Tok, target.Name)
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if why := emitsOrderedOutput(pass, call); why != "" {
					pass.Reportf(call.Pos(), "%s inside a map-range loop emits rows in randomized map order; collect and sort first", why)
				}
			}
		}
		return true
	})
}

// appendTarget returns the identifier assigned by `x = append(x, ...)`, or
// nil if the statement is not a slice-growing self-append.
func appendTarget(pass *analysis.Pass, as *ast.AssignStmt) *ast.Ident {
	if as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return nil
	}
	if b, ok := pass.TypesInfo.ObjectOf(fn).(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	return lhs
}

// floatAccumulator returns the root variable of an `x op= v` statement (op
// one of + - * /) whose target is a float or complex value declared outside
// rng and not indexed by rng's key, or nil if the statement is not one.
func floatAccumulator(pass *analysis.Pass, as *ast.AssignStmt, rng *ast.RangeStmt) *ast.Ident {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return nil
	}
	b, ok := pass.TypesInfo.TypeOf(as.Lhs[0]).Underlying().(*types.Basic)
	if !ok || b.Info()&(types.IsFloat|types.IsComplex) == 0 {
		return nil
	}
	var key types.Object
	if id, ok := rng.Key.(*ast.Ident); ok {
		key = pass.TypesInfo.ObjectOf(id)
	}
	// Walk the selector, index and dereference chain to its root variable
	// (st in st.sum, acc in acc[i]).
	e := as.Lhs[0]
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.ObjectOf(x)
			if obj == nil || obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
				return nil // accumulator local to the loop body
			}
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			if id, ok := ast.Unparen(x.Index).(*ast.Ident); ok && key != nil && pass.TypesInfo.ObjectOf(id) == key {
				return nil // one element per map key: a single iteration touches it
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sortedAfter reports whether any statement in rest sorts obj via the sort
// or slices package.
func sortedAfter(pass *analysis.Pass, rest []ast.Stmt, obj types.Object) bool {
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if mentions(pass, arg, obj) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// mentions reports whether expr references obj.
func mentions(pass *analysis.Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// emitsOrderedOutput classifies calls whose emission order is fixed at call
// time: report-table row building and stream writes. It returns a short
// description of the call, or "" if it is not order-sensitive.
func emitsOrderedOutput(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		if named := namedOf(recv.Type()); named != nil &&
			named.Obj().Name() == "Table" && (fn.Name() == "Add" || fn.Name() == "AddF") {
			return "report row " + fn.Name()
		}
		if fn.Name() == "Write" || fn.Name() == "WriteString" {
			return fn.Name() + " call"
		}
		return ""
	}
	if fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "fmt":
		if name := fn.Name(); len(name) >= 5 && name[:5] == "Fprin" {
			return "fmt." + name
		}
	case "io":
		if fn.Name() == "WriteString" {
			return "io.WriteString"
		}
	}
	return ""
}

// namedOf unwraps pointers to reach a named type.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
