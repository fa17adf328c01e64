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

// equalBits compares two plane grids for exact (bit-level) equality.
func equalBits(t *testing.T, tag string, i int, a, b *FGrid) {
	t.Helper()
	if a.Nx != b.Nx || a.Ny != b.Ny {
		t.Fatalf("%s grid %d: size %dx%d vs %dx%d", tag, i, a.Nx, a.Ny, b.Nx, b.Ny)
	}
	if j, ok := sameBits(a, b); !ok {
		t.Fatalf("%s grid %d: element %d = %v, want %v", tag, i, j, a.At(j%a.Nx, j/a.Nx), b.At(j%b.Nx, j/b.Nx))
	}
}

// TestBatchPlanBitIdentical asserts the batched transforms are bit-identical
// per grid to the single-grid FGrid methods, for every direction and band
// variant, on a batch of differing contents (including a non-square size).
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

		// Forward full.
		want := cloneBatch(batch)
		for _, g := range want {
			if err := g.FFT2D(); err != nil {
				t.Fatal(err)
			}
		}
		got := cloneBatch(batch)
		if err := bp.FFT2DAllPlanes(got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			equalBits(t, "FFT2DAllPlanes", i, got[i], want[i])
		}

		// Inverse full (of the forward spectra).
		back := cloneBatch(want)
		for _, g := range back {
			if err := g.IFFT2D(); err != nil {
				t.Fatal(err)
			}
		}
		got2 := cloneBatch(want)
		if err := bp.IFFT2DAllPlanes(got2); err != nil {
			t.Fatal(err)
		}
		for i := range got2 {
			equalBits(t, "IFFT2DAllPlanes", i, got2[i], back[i])
		}

		// Band-selected forward: only the selected rows are defined.
		wantSel := cloneBatch(batch)
		for _, g := range wantSel {
			if err := g.FFT2DBandSelect(rows); err != nil {
				t.Fatal(err)
			}
		}
		gotSel := cloneBatch(batch)
		if err := bp.FFT2DBandSelectAllPlanes(gotSel, rows); err != nil {
			t.Fatal(err)
		}
		for i := range gotSel {
			for _, iy := range rows {
				for ix := 0; ix < dims.nx; ix++ {
					if gotSel[i].At(ix, iy) != wantSel[i].At(ix, iy) {
						t.Fatalf("FFT2DBandSelectAllPlanes grid %d row %d col %d diverged", i, iy, ix)
					}
				}
			}
		}

		// Band-limited inverse: spectra zero outside the selected rows.
		spectra := make([]*FGrid, len(batch))
		for i := range spectra {
			g := NewFGrid(dims.nx, dims.ny)
			for _, iy := range rows {
				for ix := 0; ix < dims.nx; ix++ {
					g.Set(ix, iy, complex(rnd.NormFloat64(), rnd.NormFloat64()))
				}
			}
			spectra[i] = g
		}
		wantInv := cloneBatch(spectra)
		for _, g := range wantInv {
			if err := g.IFFT2DBandLimited(rows); err != nil {
				t.Fatal(err)
			}
		}
		gotInv := cloneBatch(spectra)
		if err := bp.IFFT2DBandLimitedAllPlanes(gotInv, rows); err != nil {
			t.Fatal(err)
		}
		for i := range gotInv {
			equalBits(t, "IFFT2DBandLimitedAllPlanes", i, gotInv[i], wantInv[i])
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
	if err := bp.FFT2DAllPlanes([]*FGrid{NewFGrid(16, 16), NewFGrid(32, 16)}); err == nil {
		t.Fatal("FFT2DAllPlanes accepted a mis-sized grid")
	}
	if err := bp.FFT2DBandSelectAllPlanes([]*FGrid{NewFGrid(16, 16)}, []int{16}); err == nil {
		t.Fatal("FFT2DBandSelectAllPlanes accepted an out-of-range row")
	}
	if err := bp.IFFT2DBandLimitedAllPlanes([]*FGrid{NewFGrid(16, 16)}, []int{-1}); err == nil {
		t.Fatal("IFFT2DBandLimitedAllPlanes accepted a negative row")
	}
}

// TestBatchPlanEmptyBatch asserts the degenerate no-grid batch is a no-op.
func TestBatchPlanEmptyBatch(t *testing.T) {
	bp, err := PlanBatch(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.FFT2DAllPlanes(nil); err != nil {
		t.Fatal(err)
	}
}
