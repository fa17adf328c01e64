//go:build !amd64 || purego

package vek_test

import (
	"testing"

	"postopc/internal/dsp/vek"
)

// TestSIMDOffWithoutKernels pins the other side of the dispatch: off
// amd64, and under the purego tag, every kernel runs its Go reference loop.
func TestSIMDOffWithoutKernels(t *testing.T) {
	if vek.SIMDEnabled() {
		t.Fatal("SIMDEnabled() = true without the AVX2 kernels")
	}
}
