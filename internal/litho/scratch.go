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
// concurrent workers, so the buffers are recycled (kernel scratch and
// single-corner fast-model images through free lists, mask rasters through
// a sync.Pool), and an OPC loop that hands back its rasters and images
// simulates without allocating them.
//
// Lifetime rules: a kernelScratch (and every slice grown from it) is owned
// by exactly one imaging call between borrow and release (the fast model's
// AerialBatch shares one across its masks), and nothing of it escapes into
// a returned value. The caller of Aerial (or the fast model's
// AerialWithin) owns the returned Image: it may keep it, or hand it to
// RecycleImage once it has read it, after which the fast model may hand it
// out again. Images returned by AerialSeries and the fast model's
// AerialBatch alias across dose corners and are never recycled. Borrowed
// buffers come back with unspecified contents; every consumer fully
// overwrites or zeroes before reading what it reads, which also keeps
// results independent of pool history. An AerialWithin image keeps those
// contents outside its footprint, where its caller never reads.

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
	rep   []int32   // Gaussian: the mask's repeat runs (markRepeats)
}

// kernelScratchFree is the free list of kernel scratch. Like dsp's grid
// pool (see dsp.BorrowFGrid) it allocates only when every scratch it has
// made is out, so it holds at most as many as were once borrowed at the
// same time (one per goroutine imaging at that moment), and it keeps them
// across garbage collections: a sync.Pool drops a scratch that sat idle
// through two of them, and growFloats then reallocates its blur planes
// (1.5 MB each on a 251×753 px strip window) for the next window.
var kernelScratchFree struct {
	mu   sync.Mutex
	list []*kernelScratch
}

//postopc:allocfree
func borrowKernelScratch() *kernelScratch {
	poolBorrowed()
	var s *kernelScratch
	kernelScratchFree.mu.Lock()
	if n := len(kernelScratchFree.list); n > 0 {
		s = kernelScratchFree.list[n-1]
		kernelScratchFree.list[n-1] = nil
		kernelScratchFree.list = kernelScratchFree.list[:n-1]
	}
	kernelScratchFree.mu.Unlock()
	if s == nil {
		s = new(kernelScratch) //postopc:nolint:allocbudget pool miss before warm-up is the cold path
	}
	return s
}

//postopc:allocfree
func (s *kernelScratch) release() {
	poolReturned()
	kernelScratchFree.mu.Lock()
	kernelScratchFree.list = append(kernelScratchFree.list, s) //postopc:nolint:allocbudget the list grows only while the peak number of scratches out at once rises
	kernelScratchFree.mu.Unlock()
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

// imageFree is the free list of the images the fast model's Aerial and
// AerialWithin return (see RecycleImage). Like kernelScratchFree it keeps what it holds
// across garbage collections and allocates only when it is empty; an OPC
// loop hands each image back before it images the next mask, so the list
// holds about one image per goroutine running OPC. The pool counters do
// not count it: an image belongs to Aerial's caller, which may keep it, so
// an image not handed back is not a leak.
var imageFree struct {
	mu   sync.Mutex
	list []*Image
}

// borrowImage returns an image aligned with mask, from the free list when
// it has one. Its Data has Nx*Ny elements of unspecified contents and its
// Background is the clear-field level 1.0, as NewImage's.
//
//postopc:allocfree
func borrowImage(mask *geom.Raster) *Image {
	var im *Image
	imageFree.mu.Lock()
	if n := len(imageFree.list); n > 0 {
		im = imageFree.list[n-1]
		imageFree.list[n-1] = nil
		imageFree.list = imageFree.list[:n-1]
	}
	imageFree.mu.Unlock()
	if im == nil {
		im = new(Image) //postopc:nolint:allocbudget free-list miss before warm-up is the cold path
	}
	*im = Image{
		Origin:     mask.Origin,
		Pixel:      mask.Pixel,
		Nx:         mask.Nx,
		Ny:         mask.Ny,
		Data:       growFloats(im.Data, mask.Nx*mask.Ny),
		Background: 1,
	}
	return im
}

// RecycleImage hands an image returned by a Model's Aerial, or by the
// fast model's AerialWithin, back to the fast model's free list: the image counterpart of RecycleRaster. The
// caller must not use im (or aliases of its Data) afterwards. Never pass
// an image from AerialSeries or AerialBatch, which may alias it at other
// corners. Safe to call with nil.
//
//postopc:allocfree
func RecycleImage(im *Image) {
	if im == nil {
		return
	}
	imageFree.mu.Lock()
	imageFree.list = append(imageFree.list, im) //postopc:nolint:allocbudget the list grows only while the peak number of images handed back at once rises
	imageFree.mu.Unlock()
}

// rasterPool recycles mask rasters for the window path: the raster is
// scratch — models read it during Aerial and never retain it — so callers
// hand it back with RecycleRaster once imaging is done. It stays a
// sync.Pool: a batch of 16 keeps 16 rasters per worker out at once, and a
// free list would keep that peak live.
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

// RecycleRaster returns a raster obtained from RasterizeInWindow or
// RasterizePolygons to the internal pool. The caller must not use ra (or aliases of its Data)
// afterwards. Safe to call with nil.
//
//postopc:allocfree
func RecycleRaster(ra *geom.Raster) {
	if ra != nil {
		poolReturned()
		rasterPool.Put(ra)
	}
}
