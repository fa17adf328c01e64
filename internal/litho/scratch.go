package litho

import (
	"sync"
	"sync/atomic"

	"postopc/internal/geom"
	"postopc/internal/obs"
)

// Scratch pooling for the imaging kernels. A single window simulation
// needs several full-size float work buffers (the fast model's convolution
// planes and pad rows; the Abbe model borrows its plane grids from dsp);
// full-chip runs simulate thousands of equally-sized windows from
// concurrent workers, so the buffers are recycled through sync.Pools and
// steady-state simulation allocates only the returned *Image.
//
// Lifetime rules: a kernelScratch (and every slice grown from it) is owned
// by exactly one Aerial/AerialSeries call between borrow and release, and
// nothing borrowed may escape into a returned value — returned Images
// always own freshly allocated Data. Borrowed buffers come back with
// unspecified contents; every consumer fully overwrites or zeroes before
// reading, which also keeps results independent of pool history.

// poolCounters are the telemetry handles of the package-level scratch
// pools: borrow/return counters whose difference is the number of buffers
// currently checked out (a leak detector — in steady state the balance is
// the number of in-flight simulations).
type poolCounters struct {
	borrows, returns *obs.Counter
}

// poolObs holds the active pool telemetry; an atomic pointer so
// InstrumentPools is safe to call while concurrent workers borrow. A nil
// pointer (the default) costs one atomic load per borrow/return.
var poolObs atomic.Pointer[poolCounters]

// InstrumentPools attaches telemetry to the package's scratch pools
// (kernel scratch and mask rasters): "litho.pool_borrows_total" and
// "litho.pool_returns_total". A nil or disabled sink detaches.
func InstrumentPools(sink *obs.Sink) {
	if !sink.Enabled() {
		poolObs.Store(nil)
		return
	}
	poolObs.Store(&poolCounters{
		borrows: sink.Counter("litho.pool_borrows_total"),
		returns: sink.Counter("litho.pool_returns_total"),
	})
}

//postopc:allocfree
func poolBorrowed() {
	if pc := poolObs.Load(); pc != nil {
		pc.borrows.Inc()
	}
}

//postopc:allocfree
func poolReturned() {
	if pc := poolObs.Load(); pc != nil {
		pc.returns.Inc()
	}
}

// kernelScratch carries the per-call work buffers of the Gaussian kernel.
type kernelScratch struct {
	field []float64 // Gaussian: convolved amplitude field (narrow kernel)
	tmp   []float64 // Gaussian: horizontal-pass plane with background rows
	pad   []float64 // Gaussian: background-padded amplitude row
	kern  []float64 // Gaussian: normalized 1-D kernel taps
}

var kernelScratchPool = sync.Pool{New: func() interface{} { return new(kernelScratch) }}

//postopc:allocfree
func borrowKernelScratch() *kernelScratch {
	poolBorrowed()
	return kernelScratchPool.Get().(*kernelScratch)
}

//postopc:allocfree
func (s *kernelScratch) release() {
	poolReturned()
	kernelScratchPool.Put(s)
}

// growFloats returns a slice of length n, reusing s when its capacity
// allows. Contents are unspecified.
//
//postopc:allocfree
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n) //postopc:nolint:allocbudget growth at a new buffer size is the cold path
	}
	return s[:n]
}

// rasterPool recycles mask rasters for the window path: the raster is
// scratch — models read it during Aerial and never retain it — so staged
// callers hand it back with RecycleRaster once imaging is done.
var rasterPool sync.Pool

//postopc:allocfree
func borrowRaster(window geom.Rect, pixel geom.Coord) *geom.Raster {
	poolBorrowed()
	ra, _ := rasterPool.Get().(*geom.Raster)
	if ra == nil {
		ra = new(geom.Raster) //postopc:nolint:allocbudget pool miss before warm-up is the cold path
	}
	ra.Reset(window, pixel)
	return ra
}

// RecycleRaster returns a raster obtained from RasterizeInWindow to the
// internal pool. The caller must not use ra (or aliases of its Data)
// afterwards. Safe to call with nil.
//
//postopc:allocfree
func RecycleRaster(ra *geom.Raster) {
	if ra != nil {
		poolReturned()
		rasterPool.Put(ra)
	}
}
