//go:build amd64

// Scalar convolution kernels (see conv_amd64.go). Per element they run
// the gc compiler's instruction sequence for the reference loops in
// conv.go — MULSD then ADDSD with the same operands, ascending index, no
// FMA — so results are bit-identical to the Go loops at every GOAMD64
// level. Each loop head is 64-byte aligned, and the jump into each loop
// skips its alignment padding.

#include "textflag.h"

// func convRow(dst, src, kern []float64)
//
// dst[i] = ((+0 + kern[0]*src[i]) + kern[1]*src[i+1]) + ...
TEXT ·convRow(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ kern_base+48(FP), DX
	MOVQ kern_len+56(FP), BX
	XORQ AX, AX
	JMP  row_test

	PCALIGN $64

row_loop:
	XORPS X1, X1         // s = +0
	LEAQ  (SI)(AX*8), R8 // win = src[i:]
	XORQ  R9, R9
	JMP   tap_test

	PCALIGN $64

tap_loop:
	MOVSD (DX)(R9*8), X2 // kern[j]
	MULSD (R8)(R9*8), X2 // kern[j] * win[j]
	ADDSD X2, X1         // s += product
	INCQ  R9

tap_test:
	CMPQ R9, BX
	JLT  tap_loop
	MOVSD X1, (DI)(AX*8)
	INCQ  AX

row_test:
	CMPQ AX, CX
	JLT  row_loop
	RET

// func addScaled(dst, src []float64, w float64)
//
// dst[i] = src[i]*w + dst[i]
TEXT ·addScaled(SB), NOSPLIT, $0-56
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVQ  src_base+24(FP), SI
	MOVSD w+48(FP), X1
	XORQ  AX, AX
	JMP   add_test

	PCALIGN $64

add_loop:
	MOVSD (SI)(AX*8), X2 // src[i]
	MULSD X1, X2         // src[i] * w
	ADDSD (DI)(AX*8), X2 // + dst[i]
	MOVSD X2, (DI)(AX*8)
	INCQ  AX

add_test:
	CMPQ AX, CX
	JLT  add_loop
	RET
