package load_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"postopc/internal/analysis/load"
)

// write materializes a file tree under a fresh temp module root.
func write(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// fileNames returns the base names of the package's parsed files.
func fileNames(p *load.Package) []string {
	var out []string
	for _, f := range p.Syntax {
		out = append(out, filepath.Base(p.Fset.Position(f.Pos()).Filename))
	}
	return out
}

func TestBuildTagVariantsExcluded(t *testing.T) {
	dir := write(t, map[string]string{
		"go.mod":       "module tmpmod\n\ngo 1.24\n",
		"p/a.go":       "package p\n\nconst A = 1\n",
		"p/b_other.go": "//go:build someothertag\n\npackage p\n\nconst A = 2\n",
	})
	pkgs, err := load.Packages(dir, "./p")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	names := fileNames(pkgs[0])
	if len(names) != 1 || names[0] != "a.go" {
		t.Errorf("loaded files = %v; want [a.go]: the excluded build-tag variant must not be parsed (it even redeclares A)", names)
	}
	if obj := pkgs[0].Types.Scope().Lookup("A"); obj == nil {
		t.Errorf("constant A missing from type-checked package")
	}
}

func TestTestFilesNotLoaded(t *testing.T) {
	dir := write(t, map[string]string{
		"go.mod":        "module tmpmod\n\ngo 1.24\n",
		"p/a.go":        "package p\n\nfunc F() int { return 1 }\n",
		"p/a_test.go":   "package p\n\nimport \"testing\"\n\nfunc TestF(t *testing.T) { _ = F() }\n",
		"p/ext_test.go": "package p_test\n\nimport \"testing\"\n\nfunc TestExt(t *testing.T) { t.Skip() }\n",
	})
	pkgs, err := load.Packages(dir, "./p")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	for _, name := range fileNames(pkgs[0]) {
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("test file %s was loaded; the loader must read only a package's GoFiles", name)
		}
	}
}

func TestMissingImportFailsLoad(t *testing.T) {
	dir := write(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.24\n",
		"p/a.go": "package p\n\nimport _ \"tmpmod/vendor/gone\"\n",
	})
	_, err := load.Packages(dir, "./p")
	if err == nil {
		t.Fatal("load succeeded; want an error for the unresolvable import")
	}
	if !strings.Contains(err.Error(), "gone") {
		t.Errorf("error %q does not name the missing import", err)
	}
}

func TestImportsResolveToLoadedPackages(t *testing.T) {
	// The importing package must see the loader's own check of its
	// dependency — object identity is what lets facts exported on dep
	// objects be found from importers.
	dir := write(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.24\n",
		"d/d.go": "package d\n\ntype T struct{}\n",
		"u/u.go": "package u\n\nimport \"tmpmod/d\"\n\nvar V d.T\n",
	})
	pkgs, err := load.Packages(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*load.Package{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	dep, use := byPath["tmpmod/d"], byPath["tmpmod/u"]
	if dep == nil || use == nil {
		t.Fatalf("missing packages in %v", pkgs)
	}
	for _, imp := range use.Types.Imports() {
		if imp.Path() == "tmpmod/d" && imp != dep.Types {
			t.Errorf("importer re-checked tmpmod/d: facts on its objects would be unreachable")
		}
	}
}

// TestNoPackagesMatchedFails: go list only warns on stderr when a pattern
// matches nothing, so the loader must turn that into an error — a lint run
// over a mistyped pattern would otherwise pass with no findings.
func TestNoPackagesMatchedFails(t *testing.T) {
	dir := write(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.24\n",
		"p/a.go": "package p\n",
	})
	_, err := load.Packages(dir, "./zz...")
	if err == nil {
		t.Fatal("load succeeded; want an error for a pattern that matches no package")
	}
	if !strings.Contains(err.Error(), "./zz...") {
		t.Errorf("error %q does not name the pattern", err)
	}
}

// TestDependencyOrder pins what the driver's single pass relies on:
// packages come back with every loaded import before its importer, and
// only the packages the patterns match are reported (not FactsOnly).
func TestDependencyOrder(t *testing.T) {
	dir := write(t, map[string]string{
		"go.mod":     "module tmpmod\n\ngo 1.24\n",
		"dep/dep.go": "package dep\n\ntype T struct{}\n",
		"mid/mid.go": "package mid\n\nimport \"tmpmod/dep\"\n\nvar V dep.T\n",
		"top/top.go": "package top\n\nimport \"tmpmod/mid\"\n\nvar W = mid.V\n",
	})
	for _, tc := range []struct {
		pattern string
		want    []string // import path:FactsOnly, in load order
	}{
		{"./top", []string{"tmpmod/dep:true", "tmpmod/mid:true", "tmpmod/top:false"}},
		{"./...", []string{"tmpmod/dep:false", "tmpmod/mid:false", "tmpmod/top:false"}},
	} {
		pkgs, err := load.Packages(dir, tc.pattern)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, p := range pkgs {
			got = append(got, fmt.Sprintf("%s:%v", p.ImportPath, p.FactsOnly))
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: loaded %v; want %v", tc.pattern, got, tc.want)
		}
	}
}
