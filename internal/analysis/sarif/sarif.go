// Package sarif renders analysis findings as SARIF 2.1.0, the static
// analysis interchange format CI systems ingest (GitHub code scanning,
// most SARIF viewers). Output is fully deterministic: rules are sorted by
// analyzer name, results arrive in the driver's canonical order, URIs are
// root-relative with forward slashes, and the encoder is encoding/json
// over fixed-order structs — so the same findings always render to the
// same bytes.
package sarif

import (
	"encoding/json"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"postopc/internal/analysis"
)

// infoURI points consumers at the suite documentation (DESIGN.md §
// Static analysis describes every rule).
const infoURI = "https://postopc.example/DESIGN.md#static-analysis"

// Log is the top-level SARIF document.
type Log struct {
	Schema  string `json:"$schema"`
	Version string `json:"version"`
	Runs    []Run  `json:"runs"`
}

// Run is one tool invocation.
type Run struct {
	Tool    Tool     `json:"tool"`
	Results []Result `json:"results"`
}

// Tool describes the producing tool.
type Tool struct {
	Driver Driver `json:"driver"`
}

// Driver identifies the analyzer suite and its rules.
type Driver struct {
	Name           string `json:"name"`
	InformationURI string `json:"informationUri"`
	Rules          []Rule `json:"rules"`
}

// Rule is one analyzer.
type Rule struct {
	ID               string  `json:"id"`
	ShortDescription Message `json:"shortDescription"`
}

// Message carries SARIF text.
type Message struct {
	Text string `json:"text"`
}

// Result is one finding.
type Result struct {
	RuleID    string     `json:"ruleId"`
	RuleIndex int        `json:"ruleIndex"`
	Level     string     `json:"level"`
	Message   Message    `json:"message"`
	Locations []Location `json:"locations"`
}

// Location anchors a result in source.
type Location struct {
	PhysicalLocation PhysicalLocation `json:"physicalLocation"`
}

// PhysicalLocation is a file region.
type PhysicalLocation struct {
	ArtifactLocation ArtifactLocation `json:"artifactLocation"`
	Region           Region           `json:"region"`
}

// ArtifactLocation names the file.
type ArtifactLocation struct {
	URI string `json:"uri"`
}

// Region is a start position.
type Region struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// New assembles the SARIF document for one run: every analyzer becomes a
// rule (sorted by name, findings or not, so the rule table documents the
// whole gate), every finding a result at level "error" — the lint gate
// fails the build on any finding. root makes file URIs relative; files
// outside root keep their original (slashed) path.
func New(toolName string, analyzers []*analysis.Analyzer, findings []analysis.Finding, root string) *Log {
	rules := make([]Rule, 0, len(analyzers))
	index := map[string]int{}
	for _, a := range analyzers {
		rules = append(rules, Rule{ID: a.Name, ShortDescription: Message{Text: summaryLine(a.Doc)}})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })
	for i, r := range rules {
		index[r.ID] = i
	}
	results := make([]Result, 0, len(findings))
	for _, f := range findings {
		ri, ok := index[f.Analyzer]
		if !ok {
			ri = -1
		}
		results = append(results, Result{
			RuleID:    f.Analyzer,
			RuleIndex: ri,
			Level:     "error",
			Message:   Message{Text: f.Message},
			Locations: []Location{{PhysicalLocation: PhysicalLocation{
				ArtifactLocation: ArtifactLocation{URI: relURI(root, f.Pos.Filename)},
				Region:           Region{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
			}}},
		})
	}
	return &Log{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []Run{{
			Tool:    Tool{Driver: Driver{Name: toolName, InformationURI: infoURI, Rules: rules}},
			Results: results,
		}},
	}
}

// Write encodes the document with stable two-space indentation and a
// trailing newline.
func Write(w io.Writer, l *Log) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(l)
}

// summaryLine returns the first line of an analyzer doc.
func summaryLine(doc string) string {
	if i := strings.IndexByte(doc, '\n'); i >= 0 {
		return doc[:i]
	}
	return doc
}

// relURI renders filename relative to root with forward slashes.
func relURI(root, filename string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, filename); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(filename)
}
