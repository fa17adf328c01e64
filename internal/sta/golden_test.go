package sta

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"postopc/internal/layout"
	"postopc/internal/netlist"
	"postopc/internal/timinglib"
)

// Bit-level goldens of the full analyzer on a fixed datapath. The
// incremental tests compare two engines inside one build, so a change that
// moves both at once (say, re-associating the input-capacitance product)
// passes them; these digests do not move unless a reported bit does. They
// hold at every GOAMD64 level CI runs (v1 and v3).
const (
	// goldenDrawnSHA pins Analyze of Datapath(8, 6, 5) at drawn lengths.
	goldenDrawnSHA = "db8c9a00d77bce90d07ebcecdd07e346253b44e06fb53e5ebfab5763dbaabb21"
	// goldenAnnotatedSHA pins Analyze of Datapath(8, 6, 5) under goldenAnn.
	goldenAnnotatedSHA = "42e7fb711d499b6068b9c21b6facc2312123119f6214468e3d70d6710aa98f8f"
)

// goldenAnn annotates every fifth gate with a length between 82 and 99 nm,
// and every other one of those with a contact resistance too, so the
// drive, leakage and contact terms all enter the digest.
func goldenAnn(n *netlist.Netlist) Annotations {
	ann := Annotations{}
	for i := 0; i < len(n.Gates); i += 5 {
		l := 82 + float64(i%18)
		rc := 0.0
		if i%10 == 0 {
			rc = 120 + float64(i)
		}
		ann[n.Gates[i].Name] = func(layout.GateSite) timinglib.Lengths {
			return timinglib.Lengths{DelayL: l, LeakL: l + 1.5, RContactOhm: rc}
		}
	}
	return ann
}

// renderBits renders every reported number of a result as its IEEE-754
// bits: WNS, TNS and leakage, each endpoint, and each path point.
func renderBits(r *Result) string {
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	var b strings.Builder
	fmt.Fprintf(&b, "wns %s tns %s leak %s\n", bits(r.WNS), bits(r.TNS), bits(r.LeakNW))
	for _, ep := range r.Endpoints {
		fmt.Fprintf(&b, "ep %s %s rise=%v req %s arr %s slack %s\n",
			ep.Name, ep.Net, ep.Rise, bits(ep.RequiredPS), bits(ep.ArrivalPS), bits(ep.SlackPS))
	}
	for _, p := range r.Paths {
		fmt.Fprintf(&b, "path %s slack %s arr %s\n", p.Endpoint, bits(p.SlackPS), bits(p.ArrivalPS))
		for _, pt := range p.Points {
			fmt.Fprintf(&b, "  %s %s %s rise=%v %s\n", pt.Net, pt.Gate, pt.Cell, pt.Rise, bits(pt.ArrivalPS))
		}
	}
	return b.String()
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestAnalyzeGolden pins drawn and annotated full analyses to their
// goldens, and an incremental re-analysis from the drawn baseline to the
// annotated golden.
func TestAnalyzeGolden(t *testing.T) {
	n := netlist.Datapath(8, 6, 5)
	g := buildGraph(t, n)
	cfg := DefaultConfig(1800)
	cfg.KPaths = 5
	ann := goldenAnn(n)
	drawn, err := g.Analyze(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	annotated, err := g.Analyze(cfg, ann)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := g.AnalyzeIncremental(cfg, ann, drawn)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		res        *Result
	}{
		{"drawn", goldenDrawnSHA, drawn},
		{"annotated", goldenAnnotatedSHA, annotated},
		{"incremental", goldenAnnotatedSHA, incr},
	} {
		if got := sha256Hex(renderBits(c.res)); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
