package dsp

import "sync"

// Grid pooling for the imaging hot path: a window simulation needs
// full-size complex grids (transmission/spectrum and per-source-point work
// field) per call, and steady-state full-chip runs simulate thousands of
// equally-sized windows. BorrowFGrid/ReturnFGrid recycles the planes so
// those calls allocate nothing after warm-up.
//
// The pool is a free list, safe for concurrent use (extraction and ORC
// workers share it). It allocates a grid only when every grid it has made
// is out, so it grows to the largest number of grids ever borrowed at
// once (two per imaging worker) and never holds more. It keeps them across garbage collections: a sync.Pool
// drops every grid that sat idle through two of them, and an imaging
// worker spends whole GC cycles in OPC between two windows, so it would
// reallocate its grids (4 MB each at 512×512) every few windows. A
// borrowed grid's contents are unspecified — callers must overwrite or
// Clear before reading, which also keeps results independent of pool
// history.

var fgridFree struct {
	mu    sync.Mutex
	grids []*FGrid
}

// BorrowFGrid returns an Nx × Ny plane grid from the pool, allocating only
// when no pooled grid is large enough. Contents are unspecified — callers
// must overwrite or Clear before reading.
//
//postopc:allocfree
func BorrowFGrid(nx, ny int) *FGrid {
	var f *FGrid
	fgridFree.mu.Lock()
	if n := len(fgridFree.grids); n > 0 {
		f = fgridFree.grids[n-1]
		fgridFree.grids[n-1] = nil
		fgridFree.grids = fgridFree.grids[:n-1]
	}
	fgridFree.mu.Unlock()
	if f == nil {
		return NewFGrid(nx, ny) //postopc:nolint:allocbudget pool miss before warm-up is the cold path
	}
	n := nx * ny
	if cap(f.Re) < n {
		f.Re = make([]float64, n) //postopc:nolint:allocbudget regrowth at a new window size is the cold path
		f.Im = make([]float64, n) //postopc:nolint:allocbudget regrowth at a new window size is the cold path
	}
	f.Nx, f.Ny = nx, ny
	f.Re, f.Im = f.Re[:n], f.Im[:n]
	return f
}

// ReturnFGrid puts f back into the pool. The caller must not use f (or its
// planes) afterwards.
//
//postopc:allocfree
func ReturnFGrid(f *FGrid) {
	if f == nil {
		return
	}
	fgridFree.mu.Lock()
	fgridFree.grids = append(fgridFree.grids, f) //postopc:nolint:allocbudget the list grows only while the peak number of grids out at once rises
	fgridFree.mu.Unlock()
}
