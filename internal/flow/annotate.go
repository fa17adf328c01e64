package flow

import (
	"fmt"
	"sort"

	"postopc/internal/layout"
	"postopc/internal/litho"
	"postopc/internal/netlist"
	"postopc/internal/place"
	"postopc/internal/sta"
	"postopc/internal/timinglib"
)

// AnnotationsAt builds the per-gate effective-length annotators from
// extraction results at extraction corner ci. Sites that failed to print
// fall back to drawn (pinched gates are catastrophic yield events, not
// timing annotations; they are visible via GateExtraction.Printed). A
// corner index that some site was not extracted at is an error naming the
// index, the first such gate by name and its number of extracted corners.
func AnnotationsAt(extrs map[string]*GateExtraction, ci int) (sta.Annotations, error) {
	ann := sta.Annotations{}
	bad, corners := "", 0
	for name, ext := range extrs {
		byLocal := map[string]timinglib.Lengths{}
		for _, s := range ext.Sites {
			if ci < 0 || ci >= len(s.PerCorner) {
				if bad == "" || name < bad {
					bad, corners = name, len(s.PerCorner)
				}
				break
			}
			cc := s.PerCorner[ci]
			if !cc.Printed || cc.DelayEL <= 0 {
				continue
			}
			byLocal[s.LocalName] = timinglib.Lengths{DelayL: cc.DelayEL, LeakL: cc.LeakEL}
		}
		ann[name] = func(site layout.GateSite) timinglib.Lengths {
			if l, ok := byLocal[site.Name]; ok {
				return l
			}
			return timinglib.Drawn(site)
		}
	}
	if bad != "" {
		return nil, fmt.Errorf("flow: corner index %d out of range: gate %s was extracted at %d corners", ci, bad, corners)
	}
	return ann, nil
}

// Annotations is AnnotationsAt for a corner index every site was extracted
// at: where AnnotationsAt returns an error it panics, rather than timing
// the sites at drawn length. The end-to-end benchmark (bench/) calls it at
// corner 0.
func Annotations(extrs map[string]*GateExtraction, ci int) sta.Annotations {
	ann, err := AnnotationsAt(extrs, ci)
	if err != nil {
		panic(err)
	}
	return ann
}

// RunOptions drive the full pipeline.
type RunOptions struct {
	// STA boundary conditions.
	STA sta.Config
	// Mode is the OPC applied during extraction.
	Mode OPCMode
	// Corners for extraction (default Nominal only).
	Corners []litho.Corner
	// TagTopK restricts extraction to the gates on the K worst drawn-CD
	// paths (the paper's critical-gate tagging). 0 extracts every gate.
	TagTopK int
	// Workers bounds extraction concurrency (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Batch is the number of windows per batch of extraction (see
	// ExtractOptions.Batch); no tool sets it.
	Batch int
}

// RunResult is the pipeline outcome.
type RunResult struct {
	// Netlist analyzed.
	Netlist *netlist.Netlist
	// Place is the placement.
	Place *place.Result
	// Tagged lists the extracted gates.
	Tagged []string
	// Extractions maps gate name -> extraction.
	Extractions map[string]*GateExtraction
	// Drawn is the sign-off-style drawn-CD analysis.
	Drawn *sta.Result
	// Annotated is the silicon-calibrated analysis at Corners[0].
	Annotated *sta.Result
	// Shift and Ranks compare the two.
	Shift sta.SlackShift
	// Ranks quantifies speed-path reordering.
	Ranks sta.RankComparison
	// Graph is kept for follow-on analyses (Monte Carlo, corners).
	Graph *sta.Graph
}

// Run executes the full post-OPC timing pipeline on a netlist.
func (f *Flow) Run(n *netlist.Netlist, opt RunOptions) (*RunResult, error) {
	if opt.STA.ClockPS == 0 {
		return nil, fmt.Errorf("flow: STA clock period not set")
	}
	if len(opt.Corners) == 0 {
		opt.Corners = []litho.Corner{litho.Nominal}
	}
	root := f.Obs.Start("flow.run")
	defer root.End()
	sp := f.Obs.StartChild("flow.place", root.ID())
	pl, err := f.Place(n, place.Options{})
	sp.End()
	if err != nil {
		return nil, err
	}
	g, err := f.BuildGraph(n)
	if err != nil {
		return nil, err
	}
	sp = f.Obs.StartChild("flow.sta.drawn", root.ID())
	drawn, err := g.Analyze(opt.STA, nil)
	sp.End()
	if err != nil {
		return nil, err
	}
	// Tag critical gates from the drawn analysis.
	var tagged []string
	if opt.TagTopK > 0 {
		tagged = drawn.CriticalGates(opt.TagTopK)
	}
	extrs, err := f.ExtractGates(pl.Chip, tagged, ExtractOptions{Corners: opt.Corners, Mode: opt.Mode, Workers: opt.Workers, Batch: opt.Batch})
	if err != nil {
		return nil, err
	}
	if tagged == nil {
		for name := range extrs {
			tagged = append(tagged, name)
		}
		// Map iteration order is random; keep reports reproducible.
		sort.Strings(tagged)
	}
	ann, err := AnnotationsAt(extrs, 0)
	if err != nil {
		return nil, err
	}
	sp = f.Obs.StartChild("flow.sta.annotated", root.ID())
	annotated, err := g.Analyze(opt.STA, ann)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Netlist:     n,
		Place:       pl,
		Tagged:      tagged,
		Extractions: extrs,
		Drawn:       drawn,
		Annotated:   annotated,
		Shift:       sta.CompareSlacks(drawn, annotated),
		Ranks:       sta.CompareOrders(drawn, annotated, 5, 10),
		Graph:       g,
	}, nil
}
