//go:build amd64 && !purego

// AVX2 implementations of the vek kernels, run when CPUID reports AVX2
// (see simd_avx2_amd64.go). Contract (see package doc): per-lane IEEE-754
// operations identical to the generic Go path — VMULPD/VADDPD/VSUBPD only,
// never VFMADD, never cross-lane arithmetic — so SIMD and generic planes
// are bit-identical. Every function requires its lane count to be a
// multiple of 4 (the Go wrappers handle tails) and executes VZEROUPPER
// before returning per the AVX calling convention.
//
// Go assembly operand order for VEX three-operand instructions is
// reversed from Intel: `VSUBPD Ya, Yb, Yd` computes Yd = Yb - Ya.

#include "textflag.h"

// func butterflyGroupSIMD(re, im, twRe, twIm *float64, stride, cw, half int)
//
// One butterfly group of a column block: for k in [0, half) the lo row
// starts at re/im + k*stride, the hi row half*stride further on, and every
// lane of the cw-wide block gets
//   br = hr*wr - hi*wi; bi = hr*wi + hi*wr; lo' = a + b; hi' = a - b
// with (wr, wi) = (twRe[k], twIm[k]) broadcast once per k.
TEXT ·butterflyGroupSIMD(SB), NOSPLIT, $0-56
	MOVQ  re+0(FP), DI
	MOVQ  im+8(FP), SI
	MOVQ  twRe+16(FP), R8
	MOVQ  twIm+24(FP), R9
	MOVQ  stride+32(FP), R10
	SHLQ  $3, R10          // row stride in bytes
	MOVQ  cw+40(FP), BX
	MOVQ  half+48(FP), R11
	MOVQ  R11, R12
	IMULQ R10, R12         // lo -> hi row offset in bytes
	XORQ  CX, CX           // k

bgrp_row:
	CMPQ         CX, R11
	JGE          bgrp_done
	VBROADCASTSD (R8)(CX*8), Y4 // wr
	VBROADCASTSD (R9)(CX*8), Y5 // wi
	LEAQ         (DI)(R12*1), DX // hi row, re
	LEAQ         (SI)(R12*1), R13 // hi row, im
	XORQ         AX, AX

bgrp_lane:
	CMPQ    AX, BX
	JGE     bgrp_next
	VMOVUPD (DX)(AX*8), Y2  // hr
	VMOVUPD (R13)(AX*8), Y3 // hi
	VMULPD  Y4, Y2, Y6      // hr*wr
	VMULPD  Y5, Y3, Y7      // hi*wi
	VSUBPD  Y7, Y6, Y6      // br = hr*wr - hi*wi
	VMULPD  Y5, Y2, Y7      // hr*wi
	VMULPD  Y4, Y3, Y8      // hi*wr
	VADDPD  Y8, Y7, Y7      // bi = hr*wi + hi*wr
	VMOVUPD (DI)(AX*8), Y0  // ar
	VMOVUPD (SI)(AX*8), Y1  // ai
	VADDPD  Y6, Y0, Y9      // ar+br
	VSUBPD  Y6, Y0, Y10     // ar-br
	VADDPD  Y7, Y1, Y11     // ai+bi
	VSUBPD  Y7, Y1, Y12     // ai-bi
	VMOVUPD Y9, (DI)(AX*8)
	VMOVUPD Y11, (SI)(AX*8)
	VMOVUPD Y10, (DX)(AX*8)
	VMOVUPD Y12, (R13)(AX*8)
	ADDQ    $4, AX
	JMP     bgrp_lane

bgrp_next:
	ADDQ R10, DI
	ADDQ R10, SI
	INCQ CX
	JMP  bgrp_row

bgrp_done:
	VZEROUPPER
	RET

// func butterflyRowSIMD(loRe, loIm, hiRe, hiIm, twRe, twIm *float64, n int)
//
// Same butterfly with per-element twiddles loaded from the tw planes.
TEXT ·butterflyRowSIMD(SB), NOSPLIT, $0-56
	MOVQ loRe+0(FP), DI
	MOVQ loIm+8(FP), SI
	MOVQ hiRe+16(FP), DX
	MOVQ hiIm+24(FP), CX
	MOVQ twRe+32(FP), R8
	MOVQ twIm+40(FP), R9
	MOVQ n+48(FP), BX
	XORQ AX, AX

brow_loop:
	CMPQ AX, BX
	JGE  brow_done
	VMOVUPD (R8)(AX*8), Y4 // wr
	VMOVUPD (R9)(AX*8), Y5 // wi
	VMOVUPD (DX)(AX*8), Y2 // hr
	VMOVUPD (CX)(AX*8), Y3 // hi
	VMULPD  Y4, Y2, Y6     // hr*wr
	VMULPD  Y5, Y3, Y7     // hi*wi
	VSUBPD  Y7, Y6, Y6     // br
	VMULPD  Y5, Y2, Y7     // hr*wi
	VMULPD  Y4, Y3, Y8     // hi*wr
	VADDPD  Y8, Y7, Y7     // bi
	VMOVUPD (DI)(AX*8), Y0 // ar
	VMOVUPD (SI)(AX*8), Y1 // ai
	VADDPD  Y6, Y0, Y9
	VSUBPD  Y6, Y0, Y10
	VADDPD  Y7, Y1, Y11
	VSUBPD  Y7, Y1, Y12
	VMOVUPD Y9, (DI)(AX*8)
	VMOVUPD Y11, (SI)(AX*8)
	VMOVUPD Y10, (DX)(AX*8)
	VMOVUPD Y12, (CX)(AX*8)
	ADDQ    $4, AX
	JMP     brow_loop

brow_done:
	VZEROUPPER
	RET

// func cmulSIMD(dstRe, dstIm, aRe, aIm, bRe, bIm *float64, n int)
//
// Per lane: dr = ar*br - ai*bi; di = ar*bi + ai*br. Loads complete before
// the lane's stores, so dst may alias a or b.
TEXT ·cmulSIMD(SB), NOSPLIT, $0-56
	MOVQ dstRe+0(FP), DI
	MOVQ dstIm+8(FP), SI
	MOVQ aRe+16(FP), DX
	MOVQ aIm+24(FP), CX
	MOVQ bRe+32(FP), R8
	MOVQ bIm+40(FP), R9
	MOVQ n+48(FP), BX
	XORQ AX, AX

cmul_loop:
	CMPQ AX, BX
	JGE  cmul_done
	VMOVUPD (DX)(AX*8), Y0 // ar
	VMOVUPD (CX)(AX*8), Y1 // ai
	VMOVUPD (R8)(AX*8), Y2 // br
	VMOVUPD (R9)(AX*8), Y3 // bi
	VMULPD  Y2, Y0, Y4     // ar*br
	VMULPD  Y3, Y1, Y5     // ai*bi
	VSUBPD  Y5, Y4, Y4     // dr
	VMULPD  Y3, Y0, Y5     // ar*bi
	VMULPD  Y2, Y1, Y6     // ai*br
	VADDPD  Y6, Y5, Y5     // di
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, (SI)(AX*8)
	ADDQ    $4, AX
	JMP     cmul_loop

cmul_done:
	VZEROUPPER
	RET

// func accIntensitySIMD(acc, re, im *float64, w float64, n int)
//
// Per lane: acc += w * (re*re + im*im), in that association.
TEXT ·accIntensitySIMD(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ re+8(FP), SI
	MOVQ im+16(FP), DX
	VBROADCASTSD w+24(FP), Y4
	MOVQ n+32(FP), BX
	XORQ AX, AX

acc_loop:
	CMPQ AX, BX
	JGE  acc_done
	VMOVUPD (SI)(AX*8), Y0 // r
	VMOVUPD (DX)(AX*8), Y1 // q
	VMULPD  Y0, Y0, Y2     // r*r
	VMULPD  Y1, Y1, Y3     // q*q
	VADDPD  Y3, Y2, Y2     // r*r + q*q
	VMULPD  Y4, Y2, Y2     // w * (...)
	VMOVUPD (DI)(AX*8), Y3 // acc
	VADDPD  Y2, Y3, Y3     // acc + w*(...)
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     acc_loop

acc_done:
	VZEROUPPER
	RET

// func convRowSIMD(dst, src, kern *float64, n, taps int)
//
// Per lane: dst[i] = ((+0 + kern[0]*src[i]) + kern[1]*src[i+1]) + ...,
// the tap loop of convRowGeneric four lanes at a time. Blocks of 16
// outputs keep four YMM accumulators in registers across every tap; a
// 4-wide loop takes the rest. Each loop head is 64-byte aligned, so a
// change elsewhere in the binary cannot move a tap loop across a cache
// line (see DESIGN.md, "Fixed layout of the fast model's loops").
TEXT ·convRowSIMD(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ kern+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ taps+32(FP), BX
	MOVQ CX, R10
	ANDQ $-16, R10 // end of the 16-wide blocks
	XORQ AX, AX
	JMP  crow16_test

	PCALIGN $64

crow16_loop:
	VXORPD Y0, Y0, Y0     // s = +0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (SI)(AX*8), R8 // win = src[i:]
	XORQ   R9, R9
	JMP    crow16_tap_test

	PCALIGN $64

crow16_tap_loop:
	VBROADCASTSD (DX)(R9*8), Y4       // kern[j]
	VMULPD       (R8)(R9*8), Y4, Y5   // kern[j] * win[j+0..3]
	VMULPD       32(R8)(R9*8), Y4, Y6 // kern[j] * win[j+4..7]
	VMULPD       64(R8)(R9*8), Y4, Y7
	VMULPD       96(R8)(R9*8), Y4, Y8
	VADDPD       Y5, Y0, Y0           // s += product
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	INCQ         R9

crow16_tap_test:
	CMPQ    R9, BX
	JLT     crow16_tap_loop
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ    $16, AX

crow16_test:
	CMPQ AX, R10
	JLT  crow16_loop
	JMP  crow4_test

	PCALIGN $64

crow4_loop:
	VXORPD Y0, Y0, Y0
	LEAQ   (SI)(AX*8), R8
	XORQ   R9, R9
	JMP    crow4_tap_test

	PCALIGN $64

crow4_tap_loop:
	VBROADCASTSD (DX)(R9*8), Y4
	VMULPD       (R8)(R9*8), Y4, Y5
	VADDPD       Y5, Y0, Y0
	INCQ         R9

crow4_tap_test:
	CMPQ    R9, BX
	JLT     crow4_tap_loop
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

crow4_test:
	CMPQ AX, CX
	JLT  crow4_loop
	VZEROUPPER
	RET

// func convColSIMD(dst, src, kern *float64, n, stride, taps int)
//
// Per lane: dst[i] = ((+0 + kern[0]*src[i]) + kern[1]*src[stride+i]) + ...,
// walking down the columns of a row-major plane. The accumulators stay in
// registers across all taps: 16 columns per block with four YMM
// accumulators, then a 4-wide loop. Each loop head is 64-byte aligned.
TEXT ·convColSIMD(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ kern+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ stride+32(FP), R11
	SHLQ $3, R11           // row stride in bytes
	MOVQ taps+40(FP), BX
	MOVQ CX, R10
	ANDQ $-16, R10         // end of the 16-wide blocks
	XORQ AX, AX
	JMP  ccol16_test

	PCALIGN $64

ccol16_loop:
	VXORPD Y0, Y0, Y0     // s = +0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (SI)(AX*8), R8 // p = &src[i], tap row 0
	XORQ   R9, R9
	JMP    ccol16_tap_test

	PCALIGN $64

ccol16_tap_loop:
	VBROADCASTSD (DX)(R9*8), Y4 // kern[j]
	VMULPD       (R8), Y4, Y5   // kern[j] * src[j*stride+i+0..3]
	VMULPD       32(R8), Y4, Y6
	VMULPD       64(R8), Y4, Y7
	VMULPD       96(R8), Y4, Y8
	VADDPD       Y5, Y0, Y0     // s += product
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         R11, R8        // next tap row
	INCQ         R9

ccol16_tap_test:
	CMPQ    R9, BX
	JLT     ccol16_tap_loop
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ    $16, AX

ccol16_test:
	CMPQ AX, R10
	JLT  ccol16_loop
	JMP  ccol4_test

	PCALIGN $64

ccol4_loop:
	VXORPD Y0, Y0, Y0
	LEAQ   (SI)(AX*8), R8
	XORQ   R9, R9
	JMP    ccol4_tap_test

	PCALIGN $64

ccol4_tap_loop:
	VBROADCASTSD (DX)(R9*8), Y4
	VMULPD       (R8), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         R11, R8
	INCQ         R9

ccol4_tap_test:
	CMPQ    R9, BX
	JLT     ccol4_tap_loop
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

ccol4_test:
	CMPQ AX, CX
	JLT  ccol4_loop
	VZEROUPPER
	RET
