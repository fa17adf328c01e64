// Package cachekey defines an analyzer for the flow's staged, cacheable
// pipeline functions.
//
// The pattern cache substitutes a stored artifact for a recomputation
// whenever two calls have equal signatures, so a stage function must be a
// pure function of its parameters: the stage environment parameter is
// hashed into every signature, and nothing outside it may influence the
// result. Two leaks are purely syntactic and are enforced here: a stage
// declared as a method (the receiver smuggles state past the signature),
// and a stage reading a package-level variable of its own package (hidden
// global state the signature never sees). A parameter of the hosting
// package's Flow type is flagged for the same reason — Flow carries lazily
// built state that is not serialized; stages must take the explicit stage
// environment instead.
//
// The check is shallow by design: it inspects stage-prefixed declarations
// only, and does not trace helpers they call. Cross-package variables
// (litho.Nominal and friends) are deliberately exempt — exported package
// state of other layers is part of the keyed configuration, and folding it
// belongs to the fingerprint builder, which the determinism tests cover.
package cachekey

import (
	"go/ast"
	"go/types"
	"strings"

	"postopc/internal/analysis"
)

// Analyzer is the cachekey check.
var Analyzer = &analysis.Analyzer{
	Name: "cachekey",
	Doc: "flag stage functions that can read state their cache signature does not capture\n\n" +
		"Functions named stage* feed content-addressed caches: their results are\n" +
		"recalled by a signature over their parameters, so they must not be\n" +
		"methods, must not read package-level variables of their own package,\n" +
		"and must not take the package's Flow type as a parameter.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !isStageName(fd.Name.Name) {
				continue
			}
			if fd.Recv != nil {
				pass.Reportf(fd.Name.Pos(),
					"stage function %s is a method; the receiver bypasses the cache signature — pass state through the stage environment parameter",
					fd.Name.Name)
			}
			checkParams(pass, fd)
			if fd.Body != nil {
				checkBody(pass, fd)
			}
		}
	}
	return nil
}

// isStageName matches the staged-pipeline naming convention.
func isStageName(name string) bool {
	rest, ok := strings.CutPrefix(name, "stage")
	if !ok {
		rest, ok = strings.CutPrefix(name, "Stage")
	}
	return ok && rest != ""
}

// checkParams flags parameters of the hosting package's Flow type.
func checkParams(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		t := tv.Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "Flow" && obj.Pkg() == pass.Pkg {
			pass.Reportf(field.Type.Pos(),
				"stage function %s takes %s as a parameter; Flow carries unserialized state — pass the stage environment instead",
				fd.Name.Name, types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)))
		}
	}
}

// checkBody flags reads of the package's own package-level variables.
func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || obj.Pkg() != pass.Pkg {
			return true
		}
		if obj.Parent() != pass.Pkg.Scope() {
			return true
		}
		pass.Reportf(id.Pos(),
			"stage function %s reads package variable %s, which is not captured by its cache signature — move it into the stage environment",
			fd.Name.Name, id.Name)
		return true
	})
}
