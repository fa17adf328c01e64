//go:build amd64

package vek

// The convolution kernels are assembly at every GOAMD64 level, not for
// speed but for a fixed code layout: each loop head is 64-byte aligned
// (PCALIGN), so a change elsewhere in the binary cannot move the tap loop
// across a cache-line boundary and shift the fast model's run time by a
// third. The instructions are the scalar MULSD/ADDSD sequence the gc
// compiler emits for the reference loops.

//go:noescape
//postopc:allocfree
func convRow(dst, src, kern []float64)

//go:noescape
//postopc:allocfree
func addScaled(dst, src []float64, w float64)
