package litho

import "postopc/internal/geom"

// BatchModel is implemented by models that can image many windows in one
// call. The contract is strict bit-identity: AerialBatch(masks,
// corners)[i] equals AerialSeries(masks[i], corners) element-for-element
// (including the duplicate-defocus aliasing of the series contract), for
// every mask independently — batching changes throughput, never results.
//
// Only the Gaussian model implements it, and a batch saves it nothing but
// one scratch borrow per mask; the Abbe model images each window on its
// own. The interface stays because the end-to-end benchmark module
// (bench/) decorates it and checks that batched calls reach the fast
// model, and the flow's window path keeps routing a batch through it.
type BatchModel interface {
	Model
	AerialBatch(masks []*geom.Raster, corners []Corner) ([][]*Image, error)
}

// AerialBatch implements BatchModel for the Gaussian kernel. The separable
// convolution has no cross-window transform to amortize, so the batch
// shares one kernel scratch (and one latency observation) across the
// member series loops; results match per-mask AerialSeries exactly.
func (g *Gaussian) AerialBatch(masks []*geom.Raster, corners []Corner) ([][]*Image, error) {
	if len(masks) == 0 {
		return nil, nil
	}
	for _, m := range masks {
		if m.Nx == 0 || m.Ny == 0 {
			return nil, ErrEmptyMask
		}
	}
	t0 := g.hAerial.StartTimer()
	defer g.hAerial.ObserveSince(t0)
	ks := borrowKernelScratch()
	defer ks.release()
	out := make([][]*Image, len(masks))
	for mi, mask := range masks {
		out[mi] = g.series(mask, corners, ks)
	}
	return out, nil
}

var _ BatchModel = (*Gaussian)(nil)
