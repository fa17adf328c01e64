package dsp

import (
	"fmt"

	"postopc/internal/dsp/vek"
)

// FGrid is a dense Nx × Ny complex field stored as structure-of-arrays
// float64 planes (row-major) — the native representation of the vek kernel
// layer, used by the imaging hot path end to end for mask spectra and
// aerial fields. Every plane kernel performs the exact float operation
// sequence of the complex128 code it replaced (see package vek), so the
// transforms are bit-identical to that code.
type FGrid struct {
	Nx, Ny int
	Re, Im []float64
}

// NewFGrid allocates a zeroed Nx × Ny plane grid.
func NewFGrid(nx, ny int) *FGrid {
	return &FGrid{Nx: nx, Ny: ny, Re: make([]float64, nx*ny), Im: make([]float64, nx*ny)}
}

// At returns element (ix, iy) as a complex128.
//
//postopc:allocfree
func (f *FGrid) At(ix, iy int) complex128 {
	i := iy*f.Nx + ix
	return complex(f.Re[i], f.Im[i])
}

// Set assigns element (ix, iy).
//
//postopc:allocfree
func (f *FGrid) Set(ix, iy int, v complex128) {
	i := iy*f.Nx + ix
	f.Re[i], f.Im[i] = real(v), imag(v)
}

// Clear zeroes both planes in place.
//
//postopc:allocfree
func (f *FGrid) Clear() {
	vek.Zero(f.Re)
	vek.Zero(f.Im)
}

// FFT2D performs an in-place forward 2-D FFT over the plane grid. Both
// dimensions must be powers of two.
func (f *FGrid) FFT2D() error { return f.fft2d(false) }

// IFFT2D performs an in-place inverse 2-D FFT (scaled) over the plane grid.
func (f *FGrid) IFFT2D() error { return f.fft2d(true) }

func (f *FGrid) fft2d(inverse bool) error {
	if !IsPow2(f.Nx) || !IsPow2(f.Ny) {
		return fmt.Errorf("dsp: grid %dx%d not power-of-two", f.Nx, f.Ny)
	}
	// Rows first, then columns — the order is load-bearing: floating-point
	// rounding differs between the two factorizations, and determinism
	// tests pin this one.
	rowPlan := planFor(f.Nx)
	for iy := 0; iy < f.Ny; iy++ {
		fftLinePlanes(f.Re[iy*f.Nx:(iy+1)*f.Nx], f.Im[iy*f.Nx:(iy+1)*f.Nx], rowPlan, inverse)
	}
	f.transformColumns(inverse)
	return nil
}

// FFT2DBandSelect performs the forward 2-D transform computing only the
// listed spectrum rows: the column pass runs in full, then the row pass
// runs on those rows only. On the listed rows the result equals a full
// separable transform; every other row is left partially transformed and
// must not be read.
//
// Note the pass order (columns, then rows) is the transpose of FFT2D's;
// the two factorizations agree mathematically but differ in floating-point
// rounding, so a caller must not mix values from both paths and expect
// byte equality.
func (f *FGrid) FFT2DBandSelect(rows []int) error {
	if !IsPow2(f.Nx) || !IsPow2(f.Ny) {
		return fmt.Errorf("dsp: grid %dx%d not power-of-two", f.Nx, f.Ny)
	}
	f.transformColumns(false)
	rowPlan := planFor(f.Nx)
	for _, iy := range rows {
		if iy < 0 || iy >= f.Ny {
			return fmt.Errorf("dsp: band-select row %d outside grid of %d rows", iy, f.Ny)
		}
		fftLinePlanes(f.Re[iy*f.Nx:(iy+1)*f.Nx], f.Im[iy*f.Nx:(iy+1)*f.Nx], rowPlan, false)
	}
	return nil
}

// IFFT2DBandLimited performs the inverse 2-D transform of a spectrum whose
// energy is confined to the listed rows, computing only the kept region:
// columns [0, cols) of rows [0, outRows). The row pass runs on the listed
// rows only (the inverse FFT of an all-zero row is identically zero), the
// column pass on columns [0, cols) only, skipping every bit-reversal swap
// and butterfly group that would only move or combine zeros, and the 1/Ny
// scale touches the kept region only. Within the kept region the result
// equals IFFT2D bit for bit; values outside it are unspecified.
//
// Contract: every row not in the list must hold +0 (as Clear and vek.Zero
// leave it, not -0) in columns [0, cols); the skipped butterflies are
// exact only on +0 inputs.
func (f *FGrid) IFFT2DBandLimited(rows []int, cols, outRows int) error {
	if !IsPow2(f.Nx) || !IsPow2(f.Ny) {
		return fmt.Errorf("dsp: grid %dx%d not power-of-two", f.Nx, f.Ny)
	}
	if cols < 1 || cols > f.Nx || outRows < 1 || outRows > f.Ny {
		return fmt.Errorf("dsp: kept region %dx%d outside grid %dx%d", cols, outRows, f.Nx, f.Ny)
	}
	rowPlan := planFor(f.Nx)
	for _, iy := range rows {
		if iy < 0 || iy >= f.Ny {
			return fmt.Errorf("dsp: band-limited row %d outside grid of %d rows", iy, f.Ny)
		}
		fftLinePlanes(f.Re[iy*f.Nx:(iy+1)*f.Nx], f.Im[iy*f.Nx:(iy+1)*f.Nx], rowPlan, true)
	}
	var buf [liveStackWords]uint64
	live := supportLiveness(buf[:], rows, f.Ny)
	fftColumnsBlockedPlanes(f.Re, f.Im, f.Nx, cols, planFor(f.Ny), true, live)
	for iy := 0; iy < outRows; iy++ {
		o := iy * f.Nx
		vek.ScaleInv(f.Re[o:o+cols], f.Im[o:o+cols], float64(f.Ny))
	}
	return nil
}

// transformColumns transforms every column in place through the blocked
// butterfly path. The inverse 1/Ny scaling is applied grid-wide through
// vek.ScaleInv, which performs per element exactly what the historical
// complex division did and divides each element exactly once.
//
//postopc:allocfree
func (f *FGrid) transformColumns(inverse bool) {
	fftColumnsBlockedPlanes(f.Re, f.Im, f.Nx, f.Nx, planFor(f.Ny), inverse, nil)
	if inverse {
		vek.ScaleInv(f.Re, f.Im, float64(f.Ny))
	}
}

// Energy returns the sum of |v|² over the plane grid.
//
//postopc:allocfree
func (f *FGrid) Energy() float64 {
	var s float64
	im := f.Im[:len(f.Re)]
	for i, re := range f.Re {
		q := im[i]
		s += re*re + q*q
	}
	return s
}
