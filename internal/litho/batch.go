package litho

import (
	"postopc/internal/dsp"
	"postopc/internal/geom"
)

// BatchModel is implemented by models that can image many windows in one
// call, amortizing plan resolution, filter-bank lookup and scratch
// borrowing across the batch. The contract is strict bit-identity:
// AerialBatch(masks, corners)[i] equals AerialSeries(masks[i], corners)
// element-for-element (including the duplicate-defocus aliasing of the
// series contract), for every mask independently — batching changes
// throughput, never results.
type BatchModel interface {
	Model
	AerialBatch(masks []*geom.Raster, corners []Corner) ([][]*Image, error)
}

// batchGroup collects the batch members sharing one padded grid geometry:
// the group shares one filter-set resolution, one dsp.BatchPlan and one
// interleaved forward transform.
type batchGroup struct {
	nx, ny int
	px     float64
	idx    []int // indices into the masks slice, in batch order
}

// groupByGeometry partitions the batch by (padded size, pixel) preserving
// first-appearance order. Full-chip batches come from fixed-pitch window
// tiling, so in practice there is one group.
func groupByGeometry(masks []*geom.Raster) []batchGroup {
	var groups []batchGroup
	for mi, m := range masks {
		nx, ny, px := dsp.NextPow2(m.Nx), dsp.NextPow2(m.Ny), float64(m.Pixel)
		found := false
		for gi := range groups {
			g := &groups[gi]
			if g.nx == nx && g.ny == ny && g.px == px {
				g.idx = append(g.idx, mi)
				found = true
				break
			}
		}
		if !found {
			groups = append(groups, batchGroup{nx: nx, ny: ny, px: px, idx: []int{mi}})
		}
	}
	return groups
}

// AerialBatch implements BatchModel. Masks are grouped by padded grid
// geometry; each group resolves its filter sets once, rasterizes its
// transmission grids, runs one batched band-selected forward transform
// (bit-identical per grid to the single-grid path, see dsp.BatchPlan), and
// images every member. Latency is observed once per batch on the model's
// aerial histogram.
func (a *Abbe) AerialBatch(masks []*geom.Raster, corners []Corner) ([][]*Image, error) {
	if len(masks) == 0 {
		return nil, nil
	}
	t0 := a.hAerial.StartTimer()
	defer a.hAerial.ObserveSince(t0)
	for _, m := range masks {
		if m.Nx == 0 || m.Ny == 0 {
			return nil, ErrEmptyMask
		}
	}
	out := make([][]*Image, len(masks))
	bg := a.backgroundLevel()
	for _, g := range groupByGeometry(masks) {
		bp, err := dsp.PlanBatch(g.nx, g.ny)
		if err != nil {
			return nil, err
		}
		sets, rows := a.resolveSets(g.nx, g.ny, g.px, corners)
		grids := make([]*dsp.FGrid, len(g.idx))
		for k, mi := range g.idx {
			grids[k] = a.transmissionPlanes(masks[mi], g.nx, g.ny, bg)
		}
		err = bp.FFT2DBandSelectAllPlanes(grids, rows)
		if err == nil {
			for k, mi := range g.idx {
				imgs, ierr := a.imageCorners(grids[k], masks[mi], corners, sets, bg)
				if ierr != nil {
					err = ierr
					break
				}
				out[mi] = imgs
			}
		}
		for _, gr := range grids {
			dsp.ReturnFGrid(gr)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
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
		imgs, err := g.series(mask, corners, ks)
		if err != nil {
			return nil, err
		}
		out[mi] = imgs
	}
	return out, nil
}

var (
	_ BatchModel = (*Abbe)(nil)
	_ BatchModel = (*Gaussian)(nil)
)
