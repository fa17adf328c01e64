// Package analysis is a dependency-free miniature of the
// golang.org/x/tools/go/analysis framework: an Analyzer is a named check
// over one type-checked package, a Pass is the per-package invocation
// context, and Diagnostics are position-anchored findings.
//
// The repository cannot vendor x/tools (the build environment is fully
// offline and the module tree is deliberately dependency-free), so this
// package mirrors the upstream API shape closely enough that the domain
// analyzers under internal/analysis/... could be ported to the real
// framework by changing only import paths. The driver lives in
// cmd/postopc-lint; the test harness in internal/analysis/analysistest.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and nolint directives.
	// It must be a valid Go identifier.
	Name string
	// Doc is the one-paragraph help text; the first line is the summary.
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// pass.Report.
	Run func(*Pass) error
}

// Pass is the context handed to Analyzer.Run for one package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions for Files.
	Fset *token.FileSet
	// Files are the parsed sources of the package, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's maps for Files.
	TypesInfo *types.Info
	// Report delivers one finding.
	Report func(Diagnostic)

	// facts is the driver-shared fact store; never nil inside Run.
	facts *Facts
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportObjectFact attaches fact to obj, replacing any previous fact of
// the same concrete type. The object should belong to the package under
// analysis; facts flow forward to passes over importing packages.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.facts.setObject(obj, fact)
}

// ImportObjectFact copies the fact of *fact's concrete type attached to
// obj (by this pass or a pass over a dependency) into fact, reporting
// whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.facts.getObject(obj, fact)
}

// ExportPackageFact attaches fact to the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.facts.setPackage(p.Pkg.Path(), fact)
}

// ImportPackageFact copies the package fact of *fact's concrete type
// attached to pkg into fact, reporting whether one existed.
func (p *Pass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	return p.facts.getPackage(pkg.Path(), fact)
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	// Pos is the anchor position.
	Pos token.Pos
	// Message states the finding. By convention it is lower-case and does
	// not end in punctuation.
	Message string
}

// Finding is a Diagnostic attributed to the analyzer that produced it,
// ready for rendering.
type Finding struct {
	// Analyzer names the producing check.
	Analyzer string
	// Pos is the resolved source position.
	Pos token.Position
	// Message states the finding.
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Run applies one analyzer to a type-checked package and returns its
// findings with nolint suppressions already dropped, sorted by position.
// Facts exported by the analyzer are discarded; drivers that thread facts
// between packages use RunWithFacts.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Finding, error) {
	return RunWithFacts(a, fset, files, pkg, info, NewFacts())
}

// RunWithFacts is Run with an explicit fact store: imported facts are
// resolved from it, exported facts are added to it. The store may be
// shared by concurrent passes.
func RunWithFacts(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts *Facts) ([]Finding, error) {
	if facts == nil {
		facts = NewFacts()
	}
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
		facts:     facts,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	sup := suppressions(fset, files)
	var out []Finding
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if sup.matches(pos.Filename, pos.Line, a.Name) {
			continue
		}
		out = append(out, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}

// Directive is one parsed //postopc:nolint comment.
type Directive struct {
	// Pos is the comment position.
	Pos token.Pos
	// Names are the analyzers the directive silences.
	Names []string
	// Reason is the mandatory justification following the names.
	Reason string
	// Valid reports whether the directive is well-formed. Invalid
	// directives suppress nothing; the nolint analyzer flags them.
	Valid bool
}

// ParseNolint parses one comment's text as a nolint directive. ok is
// false when the comment is not a nolint directive at all. A well-formed
// directive scopes itself to named analyzers and states a reason:
//
//	//postopc:nolint:detrand wall clock confined to obs by design
//	//postopc:nolint:maporder,deadassign fixture exercises both
//
// Bare directives, blanket directives without analyzer names, and
// directives without a reason are invalid: a suppression with no recorded
// justification is indistinguishable from a stale one.
func ParseNolint(text string) (d Directive, ok bool) {
	rest, ok := strings.CutPrefix(text, "//postopc:nolint")
	if !ok {
		return Directive{}, false
	}
	names, hasNames := strings.CutPrefix(rest, ":")
	if !hasNames {
		return Directive{}, true // bare (or legacy space-separated) form
	}
	nameList, reason, _ := strings.Cut(names, " ")
	d.Reason = strings.TrimSpace(reason)
	if strings.HasPrefix(d.Reason, "//") {
		// A trailing comment is not a recorded justification.
		d.Reason = ""
	}
	for _, n := range strings.Split(nameList, ",") {
		if n = strings.TrimSpace(n); n != "" {
			d.Names = append(d.Names, n)
		}
	}
	d.Valid = len(d.Names) > 0 && d.Reason != ""
	return d, true
}

// Nolints collects every nolint directive in the files, valid or not.
func Nolints(fset *token.FileSet, files []*ast.File) []Directive {
	var out []Directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := ParseNolint(c.Text)
				if !ok {
					continue
				}
				d.Pos = c.Pos()
				out = append(out, d)
			}
		}
	}
	return out
}

// nolintKey identifies one suppressed (file, line).
type nolintKey struct {
	file string
	line int
}

// nolintSet maps suppressed lines to the analyzer names they silence.
type nolintSet map[nolintKey][]string

// suppressions collects the valid //postopc:nolint directives. A
// directive suppresses findings on its own line and on the line below (so
// it works both trailing the offending statement and standing on its own
// above it). Invalid directives — no analyzer names, no reason — suppress
// nothing.
func suppressions(fset *token.FileSet, files []*ast.File) nolintSet {
	set := nolintSet{}
	for _, d := range Nolints(fset, files) {
		if !d.Valid {
			continue
		}
		pos := fset.Position(d.Pos)
		set[nolintKey{pos.Filename, pos.Line}] = append(set[nolintKey{pos.Filename, pos.Line}], d.Names...)
		set[nolintKey{pos.Filename, pos.Line + 1}] = append(set[nolintKey{pos.Filename, pos.Line + 1}], d.Names...)
	}
	return set
}

// matches reports whether a finding by analyzer at (file, line) is
// suppressed.
func (s nolintSet) matches(file string, line int, analyzer string) bool {
	for _, n := range s[nolintKey{file, line}] {
		if n == analyzer {
			return true
		}
	}
	return false
}

// NewInfo allocates a types.Info with every map analyzers consume.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}
