//go:build amd64

package vek

// Features describes the CPU capabilities relevant to the kernel layer,
// detected at startup via CPUID. AVX2 selects the kernel path (see
// SIMDEnabled); BENCH_*.json host blocks record the features next to
// BuildLevel and the kernel path.
type Features struct {
	// AVX2 reports 256-bit integer/float vector support usable by the OS
	// (CPUID leaf 7 EBX bit 5, gated on OSXSAVE + XCR0 state enabling).
	AVX2 bool
	// FMA reports fused-multiply-add support (CPUID leaf 1 ECX bit 12,
	// same OS gating). The vek kernels never emit FMA — the bit is recorded
	// because its presence is what makes the no-FMA contract worth pinning.
	FMA bool
}

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

var features = detect()

// CPU returns the detected host features.
func CPU() Features { return features }

func detect() Features {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return Features{}
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		bitFMA     = 1 << 12
		bitOSXSAVE = 1 << 27
		bitAVX     = 1 << 28
	)
	osAVX := false
	if ecx1&bitOSXSAVE != 0 && ecx1&bitAVX != 0 {
		// XCR0 bits 1 (SSE) and 2 (AVX upper halves) must both be
		// OS-enabled for YMM state to be usable.
		xcr0, _ := xgetbv()
		osAVX = xcr0&0x6 == 0x6
	}
	var f Features
	f.FMA = osAVX && ecx1&bitFMA != 0
	if osAVX && maxID >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		f.AVX2 = ebx7&(1<<5) != 0
	}
	return f
}
