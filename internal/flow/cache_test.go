package flow

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"postopc/internal/litho"
	"postopc/internal/netlist"
	"postopc/internal/pdk"
	"postopc/internal/place"
	"postopc/internal/sta"
)

func newFastFlow(t *testing.T) *Flow {
	t.Helper()
	f, err := New(pdk.N90(), Config{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// renderRun serializes a pipeline result to full float precision: two runs
// agree on this string iff they agree bit-for-bit on every reported value.
func renderRun(res *RunResult) string {
	var b strings.Builder
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(&b, "WNS drawn=%s annotated=%s mean-shift=%s\n",
		g(res.Drawn.WNS), g(res.Annotated.WNS), g(res.Shift.MeanAbsShiftPS))
	for _, name := range res.Tagged {
		ext := res.Extractions[name]
		fmt.Fprintf(&b, "%s cell=%s mode=%s epe.max=%s\n", name, ext.Cell, ext.Mode, g(ext.EPE.MaxAbs))
		for _, s := range ext.Sites {
			fmt.Fprintf(&b, "  %s drawn=%s", s.LocalName, g(s.DrawnL))
			for _, cc := range s.PerCorner {
				fmt.Fprintf(&b, " [cd=%s nu=%s del=%s leak=%s printed=%v]",
					g(cc.MeanCD), g(cc.Nonuniformity), g(cc.DelayEL), g(cc.LeakEL), cc.Printed)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestRunCacheDeterminism is the tentpole's hard requirement: flow.Run must
// render byte-identically with the cache on and off, at one, four, and
// GOMAXPROCS workers.
func TestRunCacheDeterminism(t *testing.T) {
	design := netlist.InverterChain(8)
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	var want string
	for _, cached := range []bool{false, true} {
		for _, workers := range workerCounts {
			f := newFastFlow(t)
			if cached {
				f.EnableCache(0)
			}
			res, err := f.Run(design, RunOptions{
				STA:     sta.DefaultConfig(1500),
				Mode:    OPCModel,
				Workers: workers,
			})
			if err != nil {
				t.Fatalf("cached=%v workers=%d: %v", cached, workers, err)
			}
			got := renderRun(res)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("cached=%v workers=%d rendered differently:\n--- want ---\n%s--- got ---\n%s",
					cached, workers, want, got)
			}
			if cached {
				if st := f.CacheStats(); st.Hits+st.Waits == 0 {
					t.Fatalf("cached=%v workers=%d: no cache reuse on a repeated-context chain (stats %+v)",
						cached, workers, st)
				}
			}
		}
	}
}

// TestCacheSharesRepeatedContexts: two instances of the same cell in the
// same neighbourhood must recall one artifact, not simulate twice.
func TestCacheSharesRepeatedContexts(t *testing.T) {
	f := newFastFlow(t)
	f.EnableCache(0)
	n := netlist.InverterChain(6)
	pl, err := f.Place(n, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The placer rows up three inverters per row; u1 and u2 sit in the
	// same row at different x with identical neighbourhoods, so their
	// canonical windows are byte-equal.
	a, err := f.ExtractInstance(pl.Chip, pl.Chip.FindInstance("u1"), ExtractOptions{Mode: OPCModel})
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.ExtractInstance(pl.Chip, pl.Chip.FindInstance("u2"), ExtractOptions{Mode: OPCModel})
	if err != nil {
		t.Fatal(err)
	}
	if a.Gate == b.Gate {
		t.Fatal("fixture broken: extracted the same instance twice")
	}
	if len(a.Sites) == 0 || &a.Sites[0] != &b.Sites[0] {
		t.Fatalf("u1/u2 windows did not share one artifact (stats %+v)", f.CacheStats())
	}
	if st := f.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly one miss then one hit", st)
	}
}

// TestVerifyChipCachedMatchesUncached: tiled ORC must produce an identical
// report with the cache attached.
func TestVerifyChipCachedMatchesUncached(t *testing.T) {
	design := netlist.InverterChain(8)
	run := func(f *Flow) *ORCReport {
		t.Helper()
		pl, err := f.Place(design, place.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Small tiles force several windows on this die; the overdose
		// corner guarantees scan work in each.
		rep, err := f.VerifyChip(pl.Chip, ORCOptions{
			TileNM:  2000,
			Corners: []litho.Corner{{DefocusNM: 0, Dose: 1.35}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := run(newFastFlow(t))
	cachedF := newFastFlow(t).EnableCache(0)
	cached := run(cachedF)
	if plain.Tiles != cached.Tiles || plain.ScannedCDs != cached.ScannedCDs ||
		len(plain.Hotspots) != len(cached.Hotspots) {
		t.Fatalf("reports differ: %+v vs %+v", plain, cached)
	}
	for i := range plain.Hotspots {
		if plain.Hotspots[i] != cached.Hotspots[i] {
			t.Fatalf("hotspot %d differs: %+v vs %+v", i, plain.Hotspots[i], cached.Hotspots[i])
		}
	}
	if st := cachedF.CacheStats(); st.Lookups() == 0 {
		t.Fatalf("ORC made no cache lookups: %+v", st)
	}
}

// TestSelectiveSweepCached: the sweep's overlapping taggings must be
// incremental under the cache, and its results identical to the uncached
// sweep.
func TestSelectiveSweepCached(t *testing.T) {
	plain := selectiveSweepRCA2(t, newFastFlow(t))
	cachedF := newFastFlow(t).EnableCache(0)
	cached := selectiveSweepRCA2(t, cachedF)

	if len(plain.Steps) != len(cached.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(plain.Steps), len(cached.Steps))
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i := range plain.Steps {
		p, c := plain.Steps[i], cached.Steps[i]
		if g(p.WNS) != g(c.WNS) || g(p.MeanAbsCDErrNM) != g(c.MeanAbsCDErrNM) || len(p.Tagged) != len(c.Tagged) {
			t.Fatalf("step %d differs: %+v vs %+v", i, p, c)
		}
	}
	if g(plain.FullWNS) != g(cached.FullWNS) {
		t.Fatalf("full-OPC WNS differs: %v vs %v", plain.FullWNS, cached.FullWNS)
	}
	st := cachedF.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("sweep produced no cache hits: %+v", st)
	}
	// Every gate tagged at K=1 is tagged again at K=2 and extracted across
	// the baseline/full passes; the sweep must be mostly recall.
	if st.HitRate() < 0.3 {
		t.Fatalf("sweep hit rate %.2f too low for overlapping taggings: %+v", st.HitRate(), st)
	}
}
