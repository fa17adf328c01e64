package litho

import (
	"errors"
	"sync"
	"testing"

	"postopc/internal/geom"
	"postopc/internal/obs"
)

// maskHalf rasterizes the standard 3-line test pattern on a window of the
// given half-size, so batches can mix padded grid geometries.
func maskHalf(half geom.Coord) *geom.Raster {
	la := LineArray{WidthNM: 130, PitchNM: 280, Count: 3, LengthNM: 600}
	ra := geom.NewRaster(geom.R(-half, -half, half, half), 10)
	for _, r := range la.Rects() {
		ra.AddRect(r)
	}
	ra.Clamp()
	return ra
}

// TestAerialBatchBitIdentical pins the BatchModel contract for both models:
// AerialBatch(masks, corners)[i] is bit-identical to
// AerialSeries(masks[i], corners), including the duplicate-defocus image
// aliasing, on a batch mixing two padded grid sizes.
func TestAerialBatchBitIdentical(t *testing.T) {
	masks := []*geom.Raster{maskHalf(640), maskHalf(320), maskHalf(640), maskHalf(320)}
	corners := []Corner{
		{DefocusNM: 0, Dose: 1},
		{DefocusNM: 80, Dose: 1},
		{DefocusNM: 0, Dose: 1.05}, // aliases corner 0
	}
	for _, m := range []BatchModel{newAbbeT(t), newGaussT(t)} {
		batch, err := m.AerialBatch(masks, corners)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(masks) {
			t.Fatalf("%T: batch returned %d results for %d masks", m, len(batch), len(masks))
		}
		for mi, mask := range masks {
			series, err := m.AerialSeries(mask, corners)
			if err != nil {
				t.Fatal(err)
			}
			for ci := range corners {
				b, s := batch[mi][ci], series[ci]
				if b.Nx != s.Nx || b.Ny != s.Ny || b.Background != s.Background {
					t.Fatalf("%T mask %d corner %d: image shape/background mismatch", m, mi, ci)
				}
				for i := range s.Data {
					if b.Data[i] != s.Data[i] {
						t.Fatalf("%T mask %d corner %d pixel %d: batch %v != series %v",
							m, mi, ci, i, b.Data[i], s.Data[i])
					}
				}
			}
			if batch[mi][2] != batch[mi][0] {
				t.Fatalf("%T mask %d: equal-defocus corners must alias one image", m, mi)
			}
			if batch[mi][1] == batch[mi][0] {
				t.Fatalf("%T mask %d: distinct defoci must not alias", m, mi)
			}
		}
	}
}

// TestAerialBatchSingleCorner covers the degenerate corner list — the
// series path's aerialOne fast path — against the batch path.
func TestAerialBatchSingleCorner(t *testing.T) {
	m := newAbbeT(t)
	masks := []*geom.Raster{maskHalf(640), maskHalf(640)}
	batch, err := m.AerialBatch(masks, []Corner{Nominal})
	if err != nil {
		t.Fatal(err)
	}
	for mi, mask := range masks {
		single, err := m.Aerial(mask, Nominal)
		if err != nil {
			t.Fatal(err)
		}
		for i := range single.Data {
			if batch[mi][0].Data[i] != single.Data[i] {
				t.Fatalf("mask %d pixel %d: batch != single-corner Aerial", mi, i)
			}
		}
	}
}

// TestAerialBatchEdgeCases covers the empty batch and the empty-raster
// member error.
func TestAerialBatchEdgeCases(t *testing.T) {
	m := newAbbeT(t)
	out, err := m.AerialBatch(nil, []Corner{Nominal})
	if err != nil || out != nil {
		t.Fatalf("empty batch: got (%v, %v), want (nil, nil)", out, err)
	}
	if _, err := m.AerialBatch([]*geom.Raster{{}}, []Corner{Nominal}); err == nil {
		t.Fatal("AerialBatch accepted an empty mask raster")
	}
}

// TestAerialBatchPoolBalance asserts the batch path returns every borrowed
// scratch buffer: after a batch, pool borrows equal pool returns.
func TestAerialBatchPoolBalance(t *testing.T) {
	sink := obs.NewSink()
	InstrumentPools(sink)
	defer InstrumentPools(nil)
	m := newAbbeT(t)
	masks := []*geom.Raster{maskHalf(640), maskHalf(320), maskHalf(640)}
	if _, err := m.AerialBatch(masks, []Corner{Nominal, {DefocusNM: 80, Dose: 1}}); err != nil {
		t.Fatal(err)
	}
	borrows := sink.Counter("litho.pool_borrows_total").Value()
	returns := sink.Counter("litho.pool_returns_total").Value()
	if borrows == 0 || borrows != returns {
		t.Fatalf("pool borrow/return imbalance after batch: %d borrows, %d returns", borrows, returns)
	}
}

// TestSharedBankConcurrentModels hammers the shared bank from concurrent
// workers holding distinct equal-recipe models (the read-mostly service
// contract): every worker must end up with the same filter-set pointer and
// imaging must succeed throughout. Run with -race this also checks the
// copy-on-write snapshot discipline.
func TestSharedBankConcurrentModels(t *testing.T) {
	const workers = 8
	mask := maskHalf(640)
	models := make([]*Abbe, workers)
	for w := range models {
		models[w] = newAbbeT(t)
	}
	ptrs := make([]*filterSet, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := models[w].Aerial(mask, Nominal); err != nil {
				t.Error(err)
				return
			}
			ptrs[w] = models[w].filtersFor(128, 128, 10, 0)
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for w := 1; w < workers; w++ {
		if ptrs[w] != ptrs[0] {
			t.Fatalf("worker %d resolved a different filter set than worker 0", w)
		}
	}
}

// TestEmptyMaskRejected pins the degenerate-input contract: both models
// reject a raster with no pixels from all three imaging entry points with
// the named ErrEmptyMask.
func TestEmptyMaskRejected(t *testing.T) {
	models := map[string]BatchModel{"abbe": newAbbeT(t), "gaussian": newGaussT(t)}
	masks := map[string]*geom.Raster{
		"nx0": {Pixel: 10, Nx: 0, Ny: 8},
		"ny0": {Pixel: 10, Nx: 8, Ny: 0},
	}
	corners := []Corner{Nominal, {DefocusNM: 80, Dose: 1}}
	for mName, m := range models {
		for kName, mask := range masks {
			entry := map[string]func() error{
				"Aerial": func() error {
					_, err := m.Aerial(mask, Nominal)
					return err
				},
				"AerialSeries": func() error {
					_, err := m.AerialSeries(mask, corners)
					return err
				},
				"AerialBatch": func() error {
					_, err := m.AerialBatch([]*geom.Raster{benchMask256(), mask}, corners)
					return err
				},
			}
			for eName, call := range entry {
				if err := call(); !errors.Is(err, ErrEmptyMask) {
					t.Errorf("%s.%s(%s): err = %v, want ErrEmptyMask", mName, eName, kName, err)
				}
			}
		}
	}
}
