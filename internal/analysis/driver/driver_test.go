package driver_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"postopc/internal/analysis"
	"postopc/internal/analysis/driver"
	"postopc/internal/analysis/keycover"
	"postopc/internal/analysis/load"
	"postopc/internal/analysis/nolint"
)

// writeModule materializes a three-package module (dep <- mid <- top) whose
// sources trip keycover across package boundaries, so the findings depend
// on facts flowing from each package to its importers.
func writeModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.24\n",
		"dep/dep.go": `package dep

func appendKeyInt(dst []byte, vs ...int64) []byte { return dst }

// Partial's key misses Skew.
type Partial struct {
	Gain float64
	Skew float64
}

func (p Partial) AppendKey(dst []byte) []byte {
	return appendKeyInt(dst, int64(p.Gain))
}

type Plain struct {
	X int64
	Y int64
}
`,
		"mid/mid.go": `package mid

import "tmpmod/dep"

func appendKeyInt(dst []byte, vs ...int64) []byte { return dst }

type Env struct {
	Part dep.Partial
	Raw  dep.Plain
}

func envKey(e *Env) []byte {
	b := e.Part.AppendKey(nil)
	b = appendKeyInt(b, e.Raw.X)
	return b
}

var _ = envKey
`,
		"top/top.go": `package top

import "tmpmod/mid"

var _ = mid.Env{} //postopc:nolint bare directive, should be flagged
`,
	}
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

func TestRunFindsCrossPackageFindings(t *testing.T) {
	dir := writeModule(t)
	pkgs, err := load.Packages(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	analyzers := []*analysis.Analyzer{keycover.Analyzer, nolint.Analyzer}
	res, err := driver.Run(pkgs, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	// dep: Partial omits Skew. mid: delegation to incomplete Partial, and
	// piecewise Plain omits Y. top: bare nolint directive.
	wantSubstr := []string{
		"omits field Skew",
		"delegates to the incomplete cache key of dep.Partial",
		"field-by-field but omits field Y",
		"must name the analyzers",
	}
	if len(res.Findings) != len(wantSubstr) {
		t.Fatalf("got %d findings, want %d:\n%v", len(res.Findings), len(wantSubstr), res.Findings)
	}
	for i, sub := range wantSubstr {
		if !bytes.Contains([]byte(res.Findings[i].Message), []byte(sub)) {
			t.Errorf("finding %d = %q; want substring %q", i, res.Findings[i].Message, sub)
		}
	}
	if len(res.Timings) != len(analyzers) {
		t.Fatalf("got %d timings, want %d", len(res.Timings), len(analyzers))
	}
	for i, a := range analyzers {
		if res.Timings[i].Analyzer != a.Name {
			t.Errorf("timing %d names %q, want %q", i, res.Timings[i].Analyzer, a.Name)
		}
	}
}
