package obs

import "math"

// HDR-style log-linear latency buckets. A coarse half-decade grid bounds
// any bucket-derived percentile to a ~3.2× band; that is fine for
// spotting a stage that fell off a cliff and useless for a regression
// gate that must resolve a 20% shift. The
// log-linear layout fixes the resolution without giving up the fixed
// atomic-array histogram: each power-of-two octave is divided into
// hdrSubBuckets equal linear sub-buckets, so the relative quantization
// error is at most 1/hdrSubBuckets (12.5%) everywhere in range before
// interpolation, and far less after it.

const (
	hdrMinPow2    = 10 // 2^10 ns ≈ 1µs — below the first bound lands in bucket 0
	hdrMaxPow2    = 34 // 2^34 ns ≈ 17.2s — beyond lands in the +Inf bucket
	hdrSubBuckets = 8
)

// HDRLatencyBuckets are the default histogram bounds for duration
// metrics resolved through Sink.LatencyHistogram, in nanoseconds:
// log-linear (8 linear sub-buckets per power-of-two octave) from ~1µs to
// ~17.2s, 193 bounds total. Quantiles interpolated from these buckets
// (HistogramValue.Quantile) are accurate to well under the 12.5%
// sub-bucket width — tight enough to gate on a 20% latency regression.
var HDRLatencyBuckets = hdrBuckets()

func hdrBuckets() []float64 {
	b := make([]float64, 0, (hdrMaxPow2-hdrMinPow2)*hdrSubBuckets+1)
	for e := hdrMinPow2; e < hdrMaxPow2; e++ {
		base := math.Ldexp(1, e)
		for j := 0; j < hdrSubBuckets; j++ {
			b = append(b, base*(1+float64(j)/hdrSubBuckets))
		}
	}
	return append(b, math.Ldexp(1, hdrMaxPow2))
}

// Quantile estimates the p-quantile of the recorded distribution by
// linear interpolation inside the bucket where the target rank falls —
// the histogram-side analogue of percentileNS. Out-of-range p clamps;
// an empty histogram reports 0. Samples in the +Inf bucket are credited
// at the last finite bound (the estimator cannot see past it).
func (h HistogramValue) Quantile(p float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(h.Count)
	var cum uint64
	for i, c := range h.Counts {
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		if float64(cum+c) >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			hi := h.Bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return h.Bounds[len(h.Bounds)-1]
}
