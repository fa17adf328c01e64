// Command postopc-lint runs the repository's static-analysis suite (see
// internal/analysis/suite) over Go packages.
//
// Standalone, it takes go-list package patterns plus flags:
//
//	postopc-lint [-json] [-timing] [-j N] [-ledger file] ./...
//
// -json renders findings as SARIF 2.1.0 on stdout (CI ingests the file as
// a code-scanning artifact); the default is file:line:col: analyzer:
// message text. -timing prints per-analyzer wall-clock to stderr.
// -ledger writes a run ledger (manifest, per-analyzer latency, finding
// count) that postopc-report can summarize and diff. -j
// bounds the driver's worker pool (0 = GOMAXPROCS, 1 = serial); output is
// byte-identical at any setting. Packages are analyzed in dependency
// order so analyzer facts (cache-key coverage, allocation-freedom) flow
// across package boundaries.
//
// It also speaks enough of the go vet tool protocol (-V=full, -flags, and
// JSON .cfg package units) to run as
//
//	go vet -vettool=$(which postopc-lint) ./...
//
// which additionally covers test files. In that mode facts travel between
// package units through the .vetx files the protocol provides: imported
// units' facts are decoded from PackageVetx, this unit's exported facts
// are gob-encoded to VetxOutput. The exit status is non-zero when any
// finding survives //postopc:nolint filtering.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"postopc/internal/analysis"
	"postopc/internal/analysis/driver"
	"postopc/internal/analysis/load"
	"postopc/internal/analysis/sarif"
	"postopc/internal/analysis/suite"
	"postopc/internal/cli"
	"postopc/internal/obs"
)

func main() {
	var patterns []string
	var cfg, ledger string
	var jsonOut, timing bool
	workers := 0
	args := os.Args[1:]
	for i := 0; i < len(args); i++ {
		arg := args[i]
		switch {
		case strings.HasPrefix(arg, "-V"):
			printVersion()
			return
		case arg == "-flags":
			// The go command queries supported flags as a JSON array; the
			// suite has none it wants vet to forward.
			fmt.Println("[]")
			return
		case arg == "-json":
			jsonOut = true
		case arg == "-timing":
			timing = true
		case strings.HasPrefix(arg, "-ledger="):
			ledger = strings.TrimPrefix(arg, "-ledger=")
		case arg == "-ledger" && i+1 < len(args):
			i++
			ledger = args[i]
		case strings.HasPrefix(arg, "-j="):
			n, err := strconv.Atoi(strings.TrimPrefix(arg, "-j="))
			if err != nil {
				cli.Fatal("postopc-lint", fmt.Errorf("bad -j value %q", arg))
			}
			workers = n
		case arg == "-j" && i+1 < len(args):
			i++
			n, err := strconv.Atoi(args[i])
			if err != nil {
				cli.Fatal("postopc-lint", fmt.Errorf("bad -j value %q", args[i]))
			}
			workers = n
		case strings.HasSuffix(arg, ".cfg"):
			cfg = arg
		case strings.HasPrefix(arg, "-"):
			// Tolerate pass-through vet flags (-c=N, ...).
		default:
			patterns = append(patterns, arg)
		}
	}
	if cfg != "" {
		os.Exit(unitCheck(cfg))
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		cli.Fatal("postopc-lint", err)
	}
	res, err := driver.Run(pkgs, suite.Analyzers, driver.Options{Workers: workers})
	if err != nil {
		cli.Fatal("postopc-lint", err)
	}
	if timing {
		printTimings(os.Stderr, res.Timings)
	}
	if ledger != "" {
		if err := writeLintLedger(ledger, pkgs, res); err != nil {
			cli.Fatal("postopc-lint", err)
		}
		fmt.Fprintln(os.Stderr, "postopc-lint: wrote run ledger to", ledger)
	}
	if jsonOut {
		root, _ := os.Getwd()
		if err := sarif.Write(os.Stdout, sarif.New("postopc-lint", suite.Analyzers, res.Findings, root)); err != nil {
			cli.Fatal("postopc-lint", err)
		}
	} else {
		for _, f := range res.Findings {
			fmt.Println(f)
		}
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "postopc-lint: %d finding(s)\n", len(res.Findings))
		os.Exit(1)
	}
}

// writeLintLedger exports a lint run as a run ledger: build manifest,
// suite shape, per-analyzer wall-clock and the finding count — enough for
// postopc-report to diff two lint runs like any other tool's ledger.
func writeLintLedger(path string, pkgs []*load.Package, res *driver.Result) error {
	sink := obs.NewSink().WithJournal(0)
	bi := obs.GetBuildInfo()
	sink.Journal.SetManifest(obs.Manifest{
		Tool:        "postopc-lint",
		Args:        os.Args[1:],
		GoVersion:   bi.GoVersion,
		GOOS:        bi.GOOS,
		GOARCH:      bi.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		VekLevel:    bi.VekLevel,
		VekPath:     bi.VekPath,
		CPUFeatures: bi.CPUFeatures,
		Module:      bi.Module,
	})
	sink.Journal.SetField("lint.packages", strconv.Itoa(len(pkgs)))
	sink.Journal.SetField("lint.analyzers", strconv.Itoa(len(suite.Analyzers)))
	sink.Counter("lint.findings_total").Add(uint64(len(res.Findings)))
	for _, t := range res.Timings {
		sink.LatencyHistogram("lint." + t.Analyzer + "_ns").Observe(float64(t.Nanos))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := sink.WriteLedger(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// printTimings reports per-analyzer wall-clock, slowest first. Timing is
// diagnostic output only: it goes to stderr and never into SARIF, which
// stays byte-deterministic.
func printTimings(w io.Writer, ts []driver.Timing) {
	sorted := append([]driver.Timing(nil), ts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Nanos != sorted[j].Nanos {
			return sorted[i].Nanos > sorted[j].Nanos
		}
		return sorted[i].Analyzer < sorted[j].Analyzer
	})
	for _, t := range sorted {
		fmt.Fprintf(w, "postopc-lint: timing %-12s %9.2fms\n", t.Analyzer, float64(t.Nanos)/1e6)
	}
}

// printVersion implements the -V=full tool-identification handshake; the
// go command folds the output into its build cache key, so it hashes the
// executable to change whenever the suite does.
func printVersion() {
	sum := [sha256.Size]byte{}
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum = sha256.Sum256(data)
		}
	}
	fmt.Printf("postopc-lint version devel buildID=%x\n", sum[:8])
}

// vetConfig is the package unit description the go command hands vet
// tools.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitCheck analyzes one go-vet package unit and returns the process exit
// code. Facts cross unit boundaries through the protocol's .vetx files:
// imported units' facts are decoded before the run, this unit's exported
// facts are encoded after it.
func unitCheck(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "postopc-lint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "postopc-lint: parsing %s: %v\n", path, err)
		return 1
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(os.Stderr, "postopc-lint:", err)
			return 1
		}
		files = append(files, f)
	}
	info := analysis.NewInfo()
	tpkg, err := typeCheckUnit(&cfg, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "postopc-lint:", err)
		return 1
	}
	analysis.RegisterFactTypes(suite.Analyzers)
	facts := analysis.NewFacts()
	importFacts(&cfg, tpkg, facts)
	n := 0
	for _, a := range suite.Analyzers {
		if cfg.VetxOnly && len(a.FactTypes) == 0 {
			// A vetx-only unit exists purely to supply facts to its
			// importers; fact-free analyzers have nothing to contribute.
			continue
		}
		findings, err := analysis.RunWithFacts(a, fset, files, tpkg, info, facts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "postopc-lint:", err)
			return 1
		}
		if cfg.VetxOnly {
			continue
		}
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
			n++
		}
	}
	if cfg.VetxOutput != "" {
		enc, err := facts.Encode(tpkg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "postopc-lint:", err)
			return 1
		}
		if err := os.WriteFile(cfg.VetxOutput, enc, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "postopc-lint:", err)
			return 1
		}
	}
	if n > 0 {
		return 2
	}
	return 0
}

// importFacts decodes the .vetx facts of every imported unit the go
// command provided. Missing or unreadable files are skipped — a unit
// without exported facts writes an empty file, and a fact that cannot be
// resolved is one no pass will ask for.
func importFacts(cfg *vetConfig, tpkg *types.Package, facts *analysis.Facts) {
	byPath := map[string]*types.Package{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if _, ok := byPath[p.Path()]; ok {
			return
		}
		byPath[p.Path()] = p
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, imp := range tpkg.Imports() {
		walk(imp)
	}
	for ipath, vetx := range cfg.PackageVetx {
		canon := ipath
		if c, ok := cfg.ImportMap[ipath]; ok {
			canon = c
		}
		// Test-variant paths look like "pkg [pkg.test]"; strip the variant.
		if i := strings.IndexByte(canon, ' '); i >= 0 {
			canon = canon[:i]
		}
		pkg, ok := byPath[canon]
		if !ok {
			continue
		}
		data, err := os.ReadFile(vetx)
		if err != nil {
			continue
		}
		// Tolerate facts files from older builds of the tool.
		_ = facts.Decode(pkg, data)
	}
}

// typeCheckUnit type-checks a vet package unit, preferring the compiler
// export data the go command already produced and falling back to
// source-based resolution.
func typeCheckUnit(cfg *vetConfig, fset *token.FileSet, files []*ast.File, info *types.Info) (*types.Package, error) {
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, compiler, lookup)}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err == nil {
		return tpkg, nil
	}
	// Fallback: resolve imports from source, as the standalone mode does.
	srcInfo := analysis.NewInfo()
	src := types.Config{Importer: sourceImporter{
		from: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dir:  cfg.Dir,
		imap: cfg.ImportMap,
	}}
	tpkg, srcErr := src.Check(cfg.ImportPath, fset, files, srcInfo)
	if srcErr != nil {
		return nil, fmt.Errorf("typecheck %s: %v (source fallback: %v)", cfg.ImportPath, err, srcErr)
	}
	*info = *srcInfo
	return tpkg, nil
}

// sourceImporter resolves vet-unit imports from source, mapping
// test-variant import paths back to their canonical packages.
type sourceImporter struct {
	from types.ImporterFrom
	dir  string
	imap map[string]string
}

func (s sourceImporter) Import(path string) (*types.Package, error) {
	if canon, ok := s.imap[path]; ok {
		// Test-variant paths look like "pkg [pkg.test]"; strip the variant.
		if i := strings.IndexByte(canon, ' '); i >= 0 {
			canon = canon[:i]
		}
		path = canon
	}
	return s.from.ImportFrom(path, s.dir, 0)
}
