package dsp

import (
	"math/rand"
	"testing"
)

// cloneBatch deep-copies a batch of plane grids.
func cloneBatch(grids []*FGrid) []*FGrid {
	out := make([]*FGrid, len(grids))
	for i, g := range grids {
		out[i] = cloneGrid(g)
	}
	return out
}

// TestBatchPlanBitIdentical asserts the batched band-selected forward
// transform is bit-identical per grid to FGrid.FFT2DBandSelect on the
// selected rows, on a batch of differing contents (including a non-square
// size).
func TestBatchPlanBitIdentical(t *testing.T) {
	for _, dims := range []struct{ nx, ny int }{{32, 32}, {64, 16}} {
		rnd := rand.New(rand.NewSource(7))
		batch := make([]*FGrid, 5)
		for i := range batch {
			batch[i] = randGrid(rnd, dims.nx, dims.ny)
		}
		bp, err := PlanBatch(dims.nx, dims.ny)
		if err != nil {
			t.Fatal(err)
		}
		rows := []int{0, 1, 2, dims.ny - 2, dims.ny - 1}

		want := cloneBatch(batch)
		for _, g := range want {
			if err := g.FFT2DBandSelect(rows); err != nil {
				t.Fatal(err)
			}
		}
		got := cloneBatch(batch)
		if err := bp.FFT2DBandSelectAllPlanes(got, rows); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			for _, iy := range rows {
				for ix := 0; ix < dims.nx; ix++ {
					if got[i].At(ix, iy) != want[i].At(ix, iy) {
						t.Fatalf("FFT2DBandSelectAllPlanes grid %d row %d col %d diverged", i, iy, ix)
					}
				}
			}
		}
	}
}

// TestBatchPlanRejectsMismatch asserts size and row validation.
func TestBatchPlanRejectsMismatch(t *testing.T) {
	if _, err := PlanBatch(12, 16); err == nil {
		t.Fatal("PlanBatch accepted a non-power-of-two width")
	}
	bp, err := PlanBatch(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.FFT2DBandSelectAllPlanes([]*FGrid{NewFGrid(16, 16), NewFGrid(32, 16)}, nil); err == nil {
		t.Fatal("FFT2DBandSelectAllPlanes accepted a mis-sized grid")
	}
	if err := bp.FFT2DBandSelectAllPlanes([]*FGrid{NewFGrid(16, 16)}, []int{16}); err == nil {
		t.Fatal("FFT2DBandSelectAllPlanes accepted an out-of-range row")
	}
	if err := bp.FFT2DBandSelectAllPlanes([]*FGrid{NewFGrid(16, 16)}, []int{-1}); err == nil {
		t.Fatal("FFT2DBandSelectAllPlanes accepted a negative row")
	}
}

// TestBatchPlanEmptyBatch asserts the degenerate no-grid batch is a no-op.
func TestBatchPlanEmptyBatch(t *testing.T) {
	bp, err := PlanBatch(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.FFT2DBandSelectAllPlanes(nil, []int{0, 7}); err != nil {
		t.Fatal(err)
	}
}
