package obs

import (
	"testing"

	"postopc/internal/dsp/vek"
)

// TestBuildInfoVekPath pins the kernel path in the build identity to the
// start-up choice vek made.
func TestBuildInfoVekPath(t *testing.T) {
	want := "generic"
	if vek.SIMDEnabled() {
		want = "avx2"
	}
	if got := GetBuildInfo().VekPath; got != want {
		t.Fatalf("VekPath = %q, want %q (SIMDEnabled %v)", got, want, vek.SIMDEnabled())
	}
}
