package opc

import (
	"fmt"
	"math"
	"sort"

	"postopc/internal/geom"
	"postopc/internal/litho"
)

// EPEStats summarizes the residual edge placement errors of a verification
// run (ORC).
type EPEStats struct {
	// Count is the number of control points evaluated.
	Count int
	// Mean, Std, MaxAbs are in nm.
	Mean, Std, MaxAbs float64
	// P95Abs is the 95th percentile of |EPE|.
	P95Abs float64
	// Violations counts control points with |EPE| > the tolerance used.
	Violations int
}

// Histogram bins EPE values for figure-style reporting.
type Histogram struct {
	// LoNM is the left edge of the first bin; WidthNM the bin width.
	LoNM, WidthNM float64
	// Counts per bin.
	Counts []int
}

// NewHistogram bins values into n bins over [lo, hi].
func NewHistogram(values []float64, lo, hi float64, n int) Histogram {
	h := Histogram{LoNM: lo, WidthNM: (hi - lo) / float64(n), Counts: make([]int, n)}
	for _, v := range values {
		i := int((v - lo) / h.WidthNM)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		h.Counts[i]++
	}
	return h
}

// Verify runs ORC: it simulates the corrected mask under the given process
// corner and measures the EPE of every fragment of the drawn target
// geometry. Tolerance sets the violation threshold (nm).
func Verify(m litho.Model, corrected, context []geom.Polygon, targets []*FragmentedPolygon,
	c litho.Corner, tolerance float64) ([]float64, EPEStats, error) {
	im, err := simulate(m, append(append([]geom.Polygon{}, corrected...), context...), c)
	if err != nil {
		return nil, EPEStats{}, err
	}
	r := m.Recipe()
	th := r.EffectiveThreshold(c)
	var epes []float64
	for _, fp := range targets {
		for _, f := range fp.Frags {
			epe, _ := MeasureEPE(im, f, th, r.Polarity, searchNM)
			epes = append(epes, epe)
		}
	}
	litho.RecycleImage(im)
	return epes, SummarizeEPE(epes, tolerance), nil
}

// SummarizeEPE computes ORC statistics for a set of EPE samples.
func SummarizeEPE(epes []float64, tolerance float64) EPEStats {
	st := EPEStats{Count: len(epes)}
	if len(epes) == 0 {
		return st
	}
	var sum float64
	abs := make([]float64, len(epes))
	for i, e := range epes {
		sum += e
		abs[i] = math.Abs(e)
		if abs[i] > st.MaxAbs {
			st.MaxAbs = abs[i]
		}
		if abs[i] > tolerance {
			st.Violations++
		}
	}
	st.Mean = sum / float64(len(epes))
	var ss float64
	for _, e := range epes {
		d := e - st.Mean
		ss += d * d
	}
	st.Std = math.Sqrt(ss / float64(len(epes)))
	sort.Float64s(abs)
	st.P95Abs = abs[int(0.95*float64(len(abs)-1))]
	return st
}

// String renders the stats in ORC-report style.
func (st EPEStats) String() string {
	return fmt.Sprintf("n=%d mean=%+.2fnm σ=%.2fnm max|EPE|=%.2fnm p95=%.2fnm viol=%d",
		st.Count, st.Mean, st.Std, st.MaxAbs, st.P95Abs, st.Violations)
}
