package dsp

import (
	"fmt"

	"postopc/internal/dsp/vek"
)

// BatchPlan executes same-size 2-D transforms over many grids with one plan
// resolution: the bit-reversal and twiddle tables of both dimensions are
// looked up once when the plan is built and reused for every grid of the
// batch, and the column passes interleave their cache-blocked butterflies
// across grids instead of finishing one grid before touching the next.
//
// Determinism contract: for every grid in the batch the sequence of
// floating-point operations applied to that grid is identical to the
// corresponding single-grid FGrid method (FFT2D, IFFT2D, FFT2DBandSelect,
// IFFT2DBandLimited) — the tables come from the same plan cache and each
// column/row runs the same vek kernel code — so batched and per-grid
// transforms are bit-identical. Only the interleaving across (independent)
// grids differs.
type BatchPlan struct {
	nx, ny   int
	row, col *plan
}

// PlanBatch resolves the transform plans for nx × ny grids. Both dimensions
// must be powers of two.
func PlanBatch(nx, ny int) (*BatchPlan, error) {
	if !IsPow2(nx) || !IsPow2(ny) {
		return nil, fmt.Errorf("dsp: batch plan %dx%d not power-of-two", nx, ny)
	}
	return &BatchPlan{nx: nx, ny: ny, row: planFor(nx), col: planFor(ny)}, nil
}

// Size returns the planned grid dimensions.
//
//postopc:allocfree
func (bp *BatchPlan) Size() (nx, ny int) { return bp.nx, bp.ny }

// checkPlanes verifies every plane grid matches the planned size.
func (bp *BatchPlan) checkPlanes(fs []*FGrid) error {
	for _, f := range fs {
		if f.Nx != bp.nx || f.Ny != bp.ny {
			return fmt.Errorf("dsp: grid %dx%d in batch planned for %dx%d", f.Nx, f.Ny, bp.nx, bp.ny)
		}
	}
	return nil
}

// checkRows verifies the row selection stays inside the planned grid.
func (bp *BatchPlan) checkRows(rows []int) error {
	for _, iy := range rows {
		if iy < 0 || iy >= bp.ny {
			return fmt.Errorf("dsp: batch row %d outside grid of %d rows", iy, bp.ny)
		}
	}
	return nil
}

// rowsAllPlanes transforms the listed spectrum rows (all rows when rows is
// nil) of every plane grid through the shared row plan.
//
//postopc:allocfree
func (bp *BatchPlan) rowsAllPlanes(fs []*FGrid, rows []int, inverse bool) {
	for _, f := range fs {
		if rows == nil {
			for iy := 0; iy < bp.ny; iy++ {
				fftLinePlanes(f.Re[iy*bp.nx:(iy+1)*bp.nx], f.Im[iy*bp.nx:(iy+1)*bp.nx], bp.row, inverse)
			}
			continue
		}
		for _, iy := range rows {
			fftLinePlanes(f.Re[iy*bp.nx:(iy+1)*bp.nx], f.Im[iy*bp.nx:(iy+1)*bp.nx], bp.row, inverse)
		}
	}
}

// columnsAllPlanes transforms every column of every plane grid,
// interleaving the cache-blocked butterflies across grids: block b of grid
// 0 is followed by block b of grid 1, so the (shared, hot) twiddle tables
// stay resident while the batch streams through memory. The inverse 1/Ny
// scaling divides each element exactly once, as FGrid.transformColumns
// does.
//
//postopc:allocfree
func (bp *BatchPlan) columnsAllPlanes(fs []*FGrid, inverse bool) {
	for c0 := 0; c0 < bp.nx; c0 += columnBlockW {
		cw := columnBlockW
		if bp.nx-c0 < cw {
			cw = bp.nx - c0
		}
		for _, f := range fs {
			fftColumnsBlockPlanes(f.Re, f.Im, bp.nx, bp.col, inverse, c0, cw)
		}
	}
	if inverse {
		for _, f := range fs {
			vek.ScaleInv(f.Re, f.Im, float64(bp.ny))
		}
	}
}

// FFT2DAllPlanes performs the forward 2-D FFT over every plane grid in
// place — bit-identical per grid to FGrid.FFT2D (rows first, then columns).
func (bp *BatchPlan) FFT2DAllPlanes(fs []*FGrid) error {
	if err := bp.checkPlanes(fs); err != nil {
		return err
	}
	bp.rowsAllPlanes(fs, nil, false)
	bp.columnsAllPlanes(fs, false)
	return nil
}

// IFFT2DAllPlanes performs the inverse 2-D FFT (scaled) over every plane
// grid in place — bit-identical per grid to FGrid.IFFT2D.
func (bp *BatchPlan) IFFT2DAllPlanes(fs []*FGrid) error {
	if err := bp.checkPlanes(fs); err != nil {
		return err
	}
	bp.rowsAllPlanes(fs, nil, true)
	bp.columnsAllPlanes(fs, true)
	return nil
}

// FFT2DBandSelectAllPlanes performs the forward transform of every plane
// grid computing only the listed spectrum rows — bit-identical per grid to
// FGrid.FFT2DBandSelect (full column pass, then the selected rows). Rows
// outside the list are left partially transformed and must not be read.
func (bp *BatchPlan) FFT2DBandSelectAllPlanes(fs []*FGrid, rows []int) error {
	if err := bp.checkPlanes(fs); err != nil {
		return err
	}
	if err := bp.checkRows(rows); err != nil {
		return err
	}
	bp.columnsAllPlanes(fs, false)
	bp.rowsAllPlanes(fs, rows, false)
	return nil
}

// IFFT2DBandLimitedAllPlanes performs the inverse transform of spectra
// whose energy is confined to the listed rows — bit-identical per grid to
// FGrid.IFFT2DBandLimited. Rows outside the list must be zero.
func (bp *BatchPlan) IFFT2DBandLimitedAllPlanes(fs []*FGrid, rows []int) error {
	if err := bp.checkPlanes(fs); err != nil {
		return err
	}
	if err := bp.checkRows(rows); err != nil {
		return err
	}
	bp.rowsAllPlanes(fs, rows, true)
	bp.columnsAllPlanes(fs, true)
	return nil
}
