// Package load locates, parses and type-checks the packages named by `go
// list`-style patterns so analyzers can run over them. It is the offline
// stand-in for golang.org/x/tools/go/packages: package enumeration is
// delegated to the go command, imports are resolved by the standard
// library's source importer (which type-checks dependencies from source —
// no compiled export data or network access required).
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"

	"postopc/internal/analysis"
)

// Package is one parsed and type-checked package.
type Package struct {
	// ImportPath is the canonical import path.
	ImportPath string
	// FactsOnly marks a package loaded purely as a dependency of the
	// requested patterns: analyzers run over it so its facts reach
	// importers, but its findings are not reported (the user did not ask
	// about it).
	FactsOnly bool
	// Fset maps positions for Syntax.
	Fset *token.FileSet
	// Syntax holds the parsed files (comments included), one per GoFile.
	Syntax []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker's maps.
	Info *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// Packages runs `go list -deps` in dir on the given patterns and returns
// every listed package parsed and type-checked, in the go command's order:
// a package comes only after everything it imports. Test files are not
// loaded — the analyzers enforce invariants on library code, and testdata
// trees are never matched by the go command.
//
// An importing package resolves an import inside the loaded set to the
// very *types.Package produced for it — never to an independent re-check
// by the source importer. Object identity across the set is what lets
// analyzer facts exported on a dependency's objects be found from its
// importers.
//
// In-module dependencies of the matched packages load too, marked
// FactsOnly: their facts must reach the requested packages even when the
// pattern names a subtree (linting ./internal/litho alone still sees the
// allocfree annotations of internal/dsp), but nobody asked for their
// findings. Standard-library dependencies are left to the source importer
// — no analyzer exports facts on them. Patterns that match no package with
// Go files are an error, so a mistyped pattern cannot pass silently.
func Packages(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	src := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	loaded := map[string]*types.Package{}
	var pkgs []*Package
	requested := false
	for _, lp := range listed {
		if lp.Standard {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("load %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := analysis.NewInfo()
		conf := types.Config{Importer: dirImporter{src, loaded, lp.Dir}}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", lp.ImportPath, err)
		}
		loaded[lp.ImportPath] = tpkg
		pkgs = append(pkgs, &Package{
			ImportPath: lp.ImportPath,
			FactsOnly:  lp.DepOnly,
			Fset:       fset,
			Syntax:     files,
			Types:      tpkg,
			Info:       info,
		})
		requested = requested || !lp.DepOnly
	}
	if !requested {
		return nil, fmt.Errorf("go list %v: matched no packages", patterns)
	}
	return pkgs, nil
}

// goList enumerates packages matching the patterns plus every dependency
// (-deps), so the loader can analyze in-module deps facts-only.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var listed []*listedPackage
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list -json: %w", err)
		}
		listed = append(listed, &lp)
	}
	return listed, nil
}

// dirImporter resolves the imports of the package in dir. An import inside
// the loaded set resolves to the loader's own check result, preserving
// object identity for facts; anything else goes to the standard library's
// source importer, shared across the run so each dependency is
// type-checked from source at most once. Resolving relative to the
// importing package's directory is what module resolution requires.
type dirImporter struct {
	src    types.ImporterFrom
	loaded map[string]*types.Package
	dir    string
}

func (d dirImporter) Import(path string) (*types.Package, error) {
	if p, ok := d.loaded[path]; ok {
		return p, nil
	}
	return d.src.ImportFrom(path, d.dir, 0)
}
