package dsp

import "fmt"

// BatchPlan executes the band-selected forward transform over many
// same-size grids with one plan resolution: the bit-reversal and twiddle
// tables of both dimensions are looked up once when the plan is built and
// reused for every grid of the batch, and the column passes interleave
// their cache-blocked butterflies across grids instead of finishing one
// grid before touching the next.
//
// Determinism contract: for every grid in the batch the sequence of
// floating-point operations applied to that grid is identical to
// FGrid.FFT2DBandSelect — the tables come from the same plan cache and
// each column/row runs the same vek kernel code — so batched and per-grid
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

// FFT2DBandSelectAllPlanes performs the forward transform of every plane
// grid computing only the listed spectrum rows — bit-identical per grid to
// FGrid.FFT2DBandSelect (full column pass, then the selected rows). Rows
// outside the list are left partially transformed and must not be read.
// The column passes interleave the cache-blocked butterflies across grids:
// block b of grid 0 is followed by block b of grid 1, so the (shared, hot)
// twiddle tables stay resident while the batch streams through memory.
func (bp *BatchPlan) FFT2DBandSelectAllPlanes(fs []*FGrid, rows []int) error {
	if err := bp.checkPlanes(fs); err != nil {
		return err
	}
	if err := bp.checkRows(rows); err != nil {
		return err
	}
	for c0 := 0; c0 < bp.nx; c0 += columnBlockW {
		cw := columnBlockW
		if bp.nx-c0 < cw {
			cw = bp.nx - c0
		}
		for _, f := range fs {
			fftColumnsBlockPlanes(f.Re, f.Im, bp.nx, bp.col, false, c0, cw, nil)
		}
	}
	for _, f := range fs {
		for _, iy := range rows {
			fftLinePlanes(f.Re[iy*bp.nx:(iy+1)*bp.nx], f.Im[iy*bp.nx:(iy+1)*bp.nx], bp.row, false)
		}
	}
	return nil
}
