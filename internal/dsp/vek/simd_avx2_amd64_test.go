//go:build amd64 && !purego

package vek_test

import (
	"testing"

	"postopc/internal/dsp/vek"
)

// TestSIMDChosenByCPUID pins the start-up dispatch: on an amd64 build
// without the purego tag the AVX2 kernels run exactly when CPUID reports
// AVX2, whatever GOAMD64 level the binary was built for.
func TestSIMDChosenByCPUID(t *testing.T) {
	if got, want := vek.SIMDEnabled(), vek.CPU().AVX2; got != want {
		t.Fatalf("SIMDEnabled() = %v, want CPU().AVX2 = %v (GOAMD64=%s)", got, want, vek.BuildLevel())
	}
}
