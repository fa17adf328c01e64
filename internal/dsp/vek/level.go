package vek

// BuildLevel returns the GOAMD64 microarchitecture level this binary was
// compiled for ("v1".."v4"), or the empty string off amd64. It does not
// decide which kernels run (see SIMDEnabled); BENCH_*.json host blocks
// record it beside the kernel path so a row names both.
func BuildLevel() string { return buildLevel }

// SIMDEnabled reports whether the AVX2 kernels were chosen at start-up:
// true on an amd64 build without the purego tag whose host reports AVX2
// through CPUID, false everywhere else.
func SIMDEnabled() bool { return simdOn }
