package flow

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"postopc/internal/netlist"
	"postopc/internal/place"
	"postopc/internal/sta"
)

// goldenSelectiveSHA pins selectiveSweepRCA2 on the fast flow, rendered by
// renderSelective.
const goldenSelectiveSHA = "9411d730b596690c1dbac4871095126e100bf9927b7faeb36de505390cdc536d"

// renderSelective serializes every field of a sweep result at full float
// precision.
func renderSelective(res *SelectiveResult) string {
	var b strings.Builder
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, s := range res.Steps {
		fmt.Fprintf(&b, "step k=%d wns=%s dwns=%s cderr=%s tagged=%s\n",
			s.K, g(s.WNS), g(s.DeltaWNS), g(s.MeanAbsCDErrNM), strings.Join(s.Tagged, ","))
	}
	fmt.Fprintf(&b, "full wns=%s cderr=%s gates=%d critical=%s\n",
		g(res.FullWNS), g(res.FullMeanAbsCDErrNM), res.GatesTotal, strings.Join(res.CriticalGates, ","))
	return b.String()
}

// selectiveSweepRCA2 runs SelectiveSweep with ks {0, 1, 2} on
// RippleCarryAdder(2), placed by f, at a 1500ps clock.
func selectiveSweepRCA2(t *testing.T, f *Flow) *SelectiveResult {
	t.Helper()
	design := netlist.RippleCarryAdder(2)
	pl, err := f.Place(design, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := f.BuildGraph(design)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sta.DefaultConfig(1500)
	cfg.KPaths = 10
	drawn, err := g.Analyze(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.SelectiveSweep(pl.Chip, g, drawn, cfg, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSelectiveSweepGolden(t *testing.T) {
	res := selectiveSweepRCA2(t, newFastFlow(t))
	if got := sha256Hex(renderSelective(res)); got != goldenSelectiveSHA {
		t.Fatalf("selective sweep digest %s, want %s\n%s", got, goldenSelectiveSHA, renderSelective(res))
	}
}

// TestMeanAbsCDErrorOrderIndependent: float addition is not associative,
// so a sum in map iteration order (which Go randomizes) can differ in its
// low bits from call to call. The CD metric sums in gate-name order and
// must return the same bits every time.
func TestMeanAbsCDErrorOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	extrs := map[string]*GateExtraction{}
	gates := map[string]bool{}
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("g%02d", i)
		e := &GateExtraction{Gate: name}
		for s := 0; s < 4; s++ {
			e.Sites = append(e.Sites, SiteCD{
				DrawnL:    90,
				PerCorner: []CornerCD{{MeanCD: 90 + 10*rng.NormFloat64()}},
			})
		}
		extrs[name] = e
		gates[name] = true
	}
	want := math.Float64bits(MeanAbsCDError(extrs, gates))
	for i := 0; i < 200; i++ {
		if got := math.Float64bits(MeanAbsCDError(extrs, gates)); got != want {
			t.Fatalf("call %d returned %016x, the first call %016x", i, got, want)
		}
	}
}
