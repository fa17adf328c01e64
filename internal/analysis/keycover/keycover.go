// Package keycover defines the cache-key coverage analyzer: every struct
// that participates in a content-addressed cache signature must have all of
// its fields serialized into the key, or carry an explicit, reasoned
// exemption.
//
// The flow's pattern cache (PR 3) substitutes a stored artifact whenever two
// computations have equal signatures, so an input field that silently stays
// out of the serialization is a cache-poisoning bug: two distinct inputs
// collide on one key and the second run recalls the first run's artifact.
// The bug class is entirely structural — a field was added to a struct and
// the AppendKey serialization was not updated — which makes it a perfect
// static-analysis target.
//
// # What is checked
//
// A signature function is a function whose name starts with AppendKey or
// appendKey, or whose body calls one. Within signature functions the
// analyzer records which struct fields are read inside the argument or
// receiver subtree of an AppendKey-family call — only there: reading a field
// elsewhere in the function (to build an environment, say) does not
// serialize it. A named struct type becomes keyed when it declares an
// AppendKey method or when its fields are serialized field-by-field, and
// every keyed struct must account for all its fields: serialized, or
// annotated
//
//	//postopc:keyignore <reason>
//
// on the field's declaration (trailing, or on the line above). A bare
// keyignore without a reason is itself reported.
//
// # Facts
//
// The check is cross-package. Analyzing a package exports two fact types:
// Coverage on each keyed type (complete, or the missing field names) and
// Ignored on each type with keyignore'd fields. A downstream package that
// serializes a foreign struct field-by-field imports the Ignored fact so the
// exemptions recorded at the declaration hold at every use site; a package
// that embeds a foreign keyed type learns from Coverage whether the
// embedded serialization it delegates to is itself complete. Types
// serialized through their own AppendKey method are trusted here and
// checked where they are declared.
package keycover

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"postopc/internal/analysis"
)

// Coverage is the fact exported for every keyed struct type: whether its
// key serialization accounts for every field.
type Coverage struct {
	// Complete reports whether every non-ignored field is serialized.
	Complete bool
	// Missing are the unaccounted field names, sorted.
	Missing []string
}

// AFact marks Coverage as a fact.
func (*Coverage) AFact() {}

func (c *Coverage) String() string {
	if c.Complete {
		return "complete"
	}
	return "incomplete: missing " + strings.Join(c.Missing, ",")
}

// Ignored is the fact exported for every struct type with keyignore'd
// fields, so packages serializing the struct field-by-field honor the
// exemptions recorded at the declaration.
type Ignored struct {
	// Fields are the exempted field names, sorted.
	Fields []string
}

// AFact marks Ignored as a fact.
func (*Ignored) AFact() {}

func (i *Ignored) String() string {
	return "keyignore " + strings.Join(i.Fields, ",")
}

// Analyzer is the cache-key coverage check.
var Analyzer = &analysis.Analyzer{
	Name: "keycover",
	Doc: "flag struct fields that cache-key serializations omit\n\n" +
		"Structs serialized into cache signatures (an AppendKey method, or\n" +
		"field-by-field inside an AppendKey-family call) must serialize every\n" +
		"field or annotate the exceptions with //postopc:keyignore <reason>.\n" +
		"Coverage and exemptions are exported as facts, so field-by-field\n" +
		"serialization of imported structs is checked too.",
	Run: run,
}

// keyFuncPrefix reports whether name belongs to the AppendKey family.
func keyFuncPrefix(name string) bool {
	return strings.HasPrefix(name, "AppendKey") || strings.HasPrefix(name, "appendKey")
}

// coverage is the per-package serialization record the signature-function
// walk accumulates.
type coverage struct {
	pass *analysis.Pass
	// covered holds every struct field read inside an AppendKey-family
	// call's argument or receiver subtree.
	covered map[*types.Var]bool
	// piecewise marks named types whose fields are serialized one by one;
	// firstUse anchors diagnostics about foreign ones.
	piecewise map[*types.TypeName]bool
	firstUse  map[*types.TypeName]token.Pos
	// whole marks named types handed to an AppendKey-family function as a
	// receiver or argument: their own serialization covers them, and their
	// declaring package vouches for its completeness.
	whole map[*types.TypeName]bool
	// embedded records, per outer field object, the foreign named type a
	// field's whole-serialization delegates to, for Coverage-fact checks.
	embedded map[*types.Var]*types.TypeName
}

func run(pass *analysis.Pass) error {
	cov := &coverage{
		pass:      pass,
		covered:   map[*types.Var]bool{},
		piecewise: map[*types.TypeName]bool{},
		firstUse:  map[*types.TypeName]token.Pos{},
		whole:     map[*types.TypeName]bool{},
		embedded:  map[*types.Var]*types.TypeName{},
	}
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isSignatureFunc(fd) {
				continue
			}
			cov.walk(fd.Body)
		}
	}
	ignored := collectKeyignores(pass)
	exportIgnored(pass, ignored)
	checkLocalTypes(pass, cov, ignored)
	checkForeignTypes(pass, cov)
	return nil
}

// isSignatureFunc reports whether fd participates in key serialization: an
// AppendKey-family function by name, or any function calling one.
func isSignatureFunc(fd *ast.FuncDecl) bool {
	if keyFuncPrefix(fd.Name.Name) {
		return true
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && keyFuncPrefix(calleeName(call)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// calleeName extracts the called function or method name, or "".
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// walk records serialization evidence from every AppendKey-family call in
// the body: field selections inside the call's argument and receiver
// subtrees count as covered; named receiver and argument types count as
// whole-serialized.
func (c *coverage) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !keyFuncPrefix(calleeName(call)) {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			// Method call (x.AppendKey) or package call (geom.AppendKeyInt):
			// only the former has a receiver expression to mine. A package
			// qualifier types as nothing and is skipped naturally.
			c.mark(sel.X, true)
		}
		for _, arg := range call.Args {
			c.mark(arg, true)
		}
		return true
	})
}

// mark records field selections in the subtree as covered, and (for the
// subtree root, when asWhole) the expression's named type as
// whole-serialized.
func (c *coverage) mark(expr ast.Expr, asWhole bool) {
	if asWhole {
		if tv, ok := c.pass.TypesInfo.Types[expr]; ok && tv.IsValue() {
			if tn := namedOf(tv.Type); tn != nil {
				c.whole[tn] = true
			}
		}
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := c.pass.TypesInfo.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		field, ok := s.Obj().(*types.Var)
		if !ok {
			return true
		}
		c.covered[field] = true
		if tn := namedOf(s.Recv()); tn != nil {
			c.piecewise[tn] = true
			if p, seen := c.firstUse[tn]; !seen || sel.Pos() < p {
				c.firstUse[tn] = sel.Pos()
			}
		}
		// x.F.AppendKey / AppendKeyRect(b, x.F): F delegates to the field
		// type's own serialization.
		if tn := namedOf(c.pass.TypesInfo.TypeOf(sel)); tn != nil {
			c.embedded[field] = tn
		}
		return true
	})
}

// namedOf unwraps pointers and one slice level to the expression's named
// type, or nil. Slices unwrap because AppendKey-family helpers commonly
// take []T and serialize each element through T's own key.
func namedOf(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Named:
			return u.Obj()
		default:
			return nil
		}
	}
}

// ignoreSet maps (file, line) of //postopc:keyignore directives to whether
// the directive carries a reason.
type ignoreSet map[fileLine]bool

type fileLine struct {
	file string
	line int
}

// collectKeyignores parses the keyignore directives of the package, and
// reports the reason-less ones: an exemption without a recorded
// justification is indistinguishable from a stale one.
func collectKeyignores(pass *analysis.Pass) ignoreSet {
	set := ignoreSet{}
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, cmt := range cg.List {
				rest, ok := strings.CutPrefix(cmt.Text, "//postopc:keyignore")
				if !ok {
					continue
				}
				reason := strings.TrimSpace(rest)
				if reason == "" || strings.HasPrefix(reason, "//") {
					pass.Reportf(cmt.Pos(),
						"keyignore directive is missing its reason: //postopc:keyignore <why this field is not part of the key>")
				}
				pos := pass.Fset.Position(cmt.Pos())
				set[fileLine{pos.Filename, pos.Line}] = true
			}
		}
	}
	return set
}

// exempts reports whether field carries a keyignore directive (trailing its
// declaration line, or on the line above).
func (s ignoreSet) exempts(fset *token.FileSet, field *types.Var) bool {
	pos := fset.Position(field.Pos())
	return s[fileLine{pos.Filename, pos.Line}] || s[fileLine{pos.Filename, pos.Line - 1}]
}

// namedStructs enumerates the package-scope named struct types, sorted by
// name for deterministic diagnostics and fact export.
func namedStructs(pkg *types.Package) []*types.TypeName {
	var out []*types.TypeName
	scope := pkg.Scope()
	names := scope.Names()
	sort.Strings(names)
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if _, ok := tn.Type().Underlying().(*types.Struct); ok {
			out = append(out, tn)
		}
	}
	return out
}

// exportIgnored attaches an Ignored fact to every local struct type with
// keyignore'd fields — keyed or not, so the exemptions are in place before
// any importing package serializes the struct field-by-field.
func exportIgnored(pass *analysis.Pass, ignored ignoreSet) {
	for _, tn := range namedStructs(pass.Pkg) {
		st := tn.Type().Underlying().(*types.Struct)
		var fields []string
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); ignored.exempts(pass.Fset, f) {
				fields = append(fields, f.Name())
			}
		}
		if len(fields) > 0 {
			pass.ExportObjectFact(tn, &Ignored{Fields: fields})
		}
	}
}

// hasAppendKeyMethod reports whether the named type declares an
// AppendKey-family method (value or pointer receiver).
func hasAppendKeyMethod(tn *types.TypeName) bool {
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if keyFuncPrefix(named.Method(i).Name()) {
			return true
		}
	}
	return false
}

// checkLocalTypes verifies every keyed type declared in this package and
// exports its Coverage fact.
func checkLocalTypes(pass *analysis.Pass, cov *coverage, ignored ignoreSet) {
	for _, tn := range namedStructs(pass.Pkg) {
		if !hasAppendKeyMethod(tn) && !cov.piecewise[tn] {
			continue
		}
		st := tn.Type().Underlying().(*types.Struct)
		var missing []string
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" || ignored.exempts(pass.Fset, f) {
				continue
			}
			if cov.accountsFor(f) {
				checkDelegation(pass, cov, f)
				continue
			}
			missing = append(missing, f.Name())
			pass.Reportf(f.Pos(),
				"cache key for %s omits field %s; serialize it with an AppendKey helper or annotate //postopc:keyignore <reason>",
				tn.Name(), f.Name())
		}
		pass.ExportObjectFact(tn, &Coverage{Complete: len(missing) == 0, Missing: missing})
	}
}

// accountsFor reports whether the walk saw field serialized: directly, or —
// for an embedded field — through promoted selections of every field of the
// embedded struct.
func (c *coverage) accountsFor(field *types.Var) bool {
	if c.covered[field] {
		return true
	}
	if !field.Embedded() {
		return false
	}
	tn := namedOf(field.Type())
	if tn == nil {
		return false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok || st.NumFields() == 0 {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if !c.covered[st.Field(i)] {
			return false
		}
	}
	return true
}

// checkDelegation cross-checks a field whose serialization delegates to a
// foreign type's own AppendKey: if that package's keycover pass exported an
// incomplete Coverage fact, the gap surfaces here too — the importing
// package's signature inherits the collision.
func checkDelegation(pass *analysis.Pass, cov *coverage, field *types.Var) {
	tn := cov.embedded[field]
	if tn == nil || tn.Pkg() == pass.Pkg {
		return
	}
	var c Coverage
	if pass.ImportObjectFact(tn, &c) && !c.Complete {
		pass.Reportf(field.Pos(),
			"field %s delegates to the incomplete cache key of %s.%s (missing %s)",
			field.Name(), tn.Pkg().Name(), tn.Name(), strings.Join(c.Missing, ","))
	}
}

// checkForeignTypes verifies field-by-field serializations of structs
// declared in other packages: the Ignored fact exported at the declaration
// supplies the exemptions, and a field neither serialized here nor exempted
// there is reported at the first serializing use. Types handed whole to
// their own AppendKey are exempt — their declaring package checks them.
func checkForeignTypes(pass *analysis.Pass, cov *coverage) {
	var foreign []*types.TypeName
	for tn := range cov.piecewise {
		if tn.Pkg() != pass.Pkg && !cov.whole[tn] {
			foreign = append(foreign, tn)
		}
	}
	sort.Slice(foreign, func(i, j int) bool { return foreign[i].Name() < foreign[j].Name() })
	for _, tn := range foreign {
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		exempt := map[string]bool{}
		var ig Ignored
		if pass.ImportObjectFact(tn, &ig) {
			for _, name := range ig.Fields {
				exempt[name] = true
			}
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" || exempt[f.Name()] || cov.accountsFor(f) {
				continue
			}
			pass.Reportf(cov.firstUse[tn],
				"cache key serializes %s.%s field-by-field but omits field %s; append it to the key or annotate //postopc:keyignore at its declaration",
				tn.Pkg().Name(), tn.Name(), f.Name())
		}
	}
}

// isTestFile reports whether the file is a _test.go file.
func isTestFile(pass *analysis.Pass, file *ast.File) bool {
	name := pass.Fset.Position(file.Pos()).Filename
	return strings.HasSuffix(name, "_test.go")
}
