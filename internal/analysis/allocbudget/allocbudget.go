// Package allocbudget defines the allocation-budget analyzer: functions
// annotated //postopc:allocfree must not contain heap-allocating constructs
// on their steady-state path.
//
// The imaging hot path holds a runtime-enforced budget (litho's
// TestKernelAllocBudget: a warm window simulation allocates only the
// returned image), built from pooled scratch, planned FFT tables and
// write-only telemetry handles. The runtime test catches drift but not its
// source; this analyzer pins the contract to the functions that carry it,
// so the diagnostic lands on the offending line the moment an allocation
// creeps in — not on a test failure three layers up.
//
// # What is flagged
//
// Inside an annotated function: make, new and append; slice and map
// composite literals and address-of composite literals; string
// concatenation and string<->byte-slice conversions; closure literals and
// go statements; and calls to functions that are not themselves
// allocation-free. A call is allocation-free when the callee is annotated
// in this package, carries the AllocFree fact (exported when its package
// was analyzed — the cross-package channel), is an allocation-free builtin,
// or belongs to an allowlisted runtime-support package (sync, sync/atomic,
// math, math/bits, math/cmplx, time) whose primitives the hot path is built
// from.
//
// Cold sub-paths inside an annotated function — pool misses, first-use
// growth, plan construction, error returns — are real allocations that the
// steady state never executes; they stay visible in the source via
// line-scoped suppressions (//postopc:nolint:allocbudget <reason>), which
// double as documentation of where the cold path is.
package allocbudget

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"postopc/internal/analysis"
)

// AllocFree is the fact exported for every annotated function, letting
// passes over importing packages accept calls to it.
type AllocFree struct{}

// AFact marks AllocFree as a fact.
func (*AllocFree) AFact() {}

func (*AllocFree) String() string { return "allocfree" }

// Analyzer is the allocation-budget check.
var Analyzer = &analysis.Analyzer{
	Name: "allocbudget",
	Doc: "flag heap allocations in functions annotated //postopc:allocfree\n\n" +
		"Annotated functions form the kernel hot path, whose steady-state\n" +
		"allocation budget the runtime tests pin. They must avoid allocating\n" +
		"constructs and may only call other allocation-free functions (the\n" +
		"annotation travels across packages as a fact). Cold sub-paths carry\n" +
		"//postopc:nolint:allocbudget <reason> line suppressions.",
	FactTypes: []analysis.Fact{(*AllocFree)(nil)},
	Run:       run,
}

// allowedPkgs are the runtime-support packages whose calls are accepted
// without annotation: synchronization, atomics and pure math, the
// primitives pools and planned kernels are made of.
var allowedPkgs = map[string]bool{
	"sync":        true,
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
	"math/cmplx":  true,
	"time":        true,
}

// allowedBuiltins never allocate (or only on the crash path).
var allowedBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "delete": true, "clear": true,
	"real": true, "imag": true, "complex": true, "min": true, "max": true,
	"panic": true, "recover": true,
}

func run(pass *analysis.Pass) error {
	marked := markedFuncs(pass)
	for obj := range marked {
		pass.ExportObjectFact(obj, &AllocFree{})
	}
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil || !marked[obj] {
				continue
			}
			check(pass, marked, fd)
		}
	}
	return nil
}

// markedFuncs resolves the //postopc:allocfree directives to the function
// objects they annotate: a directive anywhere in a function's doc comment
// group marks it, so other directives (//go:noescape on an assembly
// declaration) may sit between it and the func line.
func markedFuncs(pass *analysis.Pass) map[*types.Func]bool {
	marked := map[*types.Func]bool{}
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasDirective(fd.Doc) {
				continue
			}
			if obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func); obj != nil {
				marked[obj] = true
			}
		}
	}
	return marked
}

// hasDirective reports whether the comment group holds a
// //postopc:allocfree line (optionally followed by a space and a note).
func hasDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, cmt := range doc.List {
		rest, ok := strings.CutPrefix(cmt.Text, "//postopc:allocfree")
		if ok && (rest == "" || strings.HasPrefix(rest, " ")) {
			return true
		}
	}
	return false
}

// check walks one annotated function body.
func check(pass *analysis.Pass, marked map[*types.Func]bool, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(),
				"allocfree function %s creates a closure, which may allocate its captures", name)
			return false
		case *ast.GoStmt:
			pass.Reportf(n.Pos(),
				"allocfree function %s starts a goroutine, which allocates a stack", name)
		case *ast.CompositeLit:
			switch pass.TypesInfo.TypeOf(n).Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(n.Pos(),
					"allocfree function %s builds a %s literal, which allocates", name, kindWord(pass, n))
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(),
						"allocfree function %s takes the address of a composite literal, which escapes to the heap", name)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass.TypesInfo.TypeOf(n)) {
				pass.Reportf(n.Pos(),
					"allocfree function %s concatenates strings, which allocates", name)
			}
		case *ast.CallExpr:
			checkCall(pass, marked, name, n)
		}
		return true
	})
}

// checkCall vets one call inside an annotated function.
func checkCall(pass *analysis.Pass, marked map[*types.Func]bool, name string, call *ast.CallExpr) {
	// Conversions: only the string<->byte/rune-slice pairs copy.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && stringConversion(tv.Type, pass.TypesInfo.TypeOf(call.Args[0])) {
			pass.Reportf(call.Pos(),
				"allocfree function %s converts between string and byte slice, which copies", name)
		}
		return
	}
	callee := calleeObject(pass, call)
	switch callee := callee.(type) {
	case *types.Builtin:
		if !allowedBuiltins[callee.Name()] {
			pass.Reportf(call.Pos(),
				"allocfree function %s calls %s, which allocates", name, callee.Name())
		}
	case *types.Func:
		if marked[callee] {
			return
		}
		var af AllocFree
		if pass.ImportObjectFact(callee, &af) {
			return
		}
		if pkg := callee.Pkg(); pkg != nil && allowedPkgs[pkg.Path()] {
			return
		}
		if isInterfaceMethod(callee) {
			pass.Reportf(call.Pos(),
				"allocfree function %s makes a dynamic call to %s, which cannot be verified allocation-free", name, callee.Name())
			return
		}
		pass.Reportf(call.Pos(),
			"allocfree function %s calls %s, which is not marked //postopc:allocfree", name, callee.Name())
	default:
		pass.Reportf(call.Pos(),
			"allocfree function %s makes an indirect call, which cannot be verified allocation-free", name)
	}
}

// calleeObject resolves the called function object, or nil.
func calleeObject(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// isInterfaceMethod reports whether fn's receiver is an interface.
func isInterfaceMethod(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// stringConversion reports whether converting from into to copies data
// (string <-> []byte / []rune).
func stringConversion(to, from types.Type) bool {
	return (isString(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

// kindWord names the allocating literal kind for the diagnostic.
func kindWord(pass *analysis.Pass, lit *ast.CompositeLit) string {
	if _, ok := pass.TypesInfo.TypeOf(lit).Underlying().(*types.Map); ok {
		return "map"
	}
	return "slice"
}

// isTestFile reports whether the file is a _test.go file.
func isTestFile(pass *analysis.Pass, file *ast.File) bool {
	name := pass.Fset.Position(file.Pos()).Filename
	return strings.HasSuffix(name, "_test.go")
}
