//go:build amd64

#include "textflag.h"

// AVX2+FMA and AVX-512F micro-kernels for the packed GEMM (see
// kernels.go for the layout). Each output element of a full panel is one
// VFMADD231PD chain in ascending k — the per-element determinism
// contract the plan layer depends on.

// func gemm4x8(k int, a *float64, lda int, b *float64, c *float64, ldc int)
// Computes c[0:4][0:8] = a[0:4][0:k] * panel for a packed k x 8 panel at b.
TEXT ·gemm4x8(SB), NOSPLIT, $0-48
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ b+24(FP), DX
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R9
	SHLQ $3, R8              // lda in bytes
	SHLQ $3, R9              // ldc in bytes

	LEAQ (SI)(R8*1), R10     // a row 1
	LEAQ (R10)(R8*1), R11    // a row 2
	LEAQ (R11)(R8*1), R12    // a row 3

	VXORPD Y0, Y0, Y0        // c row 0, cols 0..3
	VXORPD Y1, Y1, Y1        // c row 0, cols 4..7
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

loop4x8:
	VMOVUPD (DX), Y8         // panel row kk, cols 0..3
	VMOVUPD 32(DX), Y9       // panel row kk, cols 4..7

	VBROADCASTSD (SI), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VBROADCASTSD (R10), Y10
	VFMADD231PD Y8, Y10, Y2
	VFMADD231PD Y9, Y10, Y3
	VBROADCASTSD (R11), Y10
	VFMADD231PD Y8, Y10, Y4
	VFMADD231PD Y9, Y10, Y5
	VBROADCASTSD (R12), Y10
	VFMADD231PD Y8, Y10, Y6
	VFMADD231PD Y9, Y10, Y7

	ADDQ $8, SI
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $64, DX
	DECQ CX
	JNZ  loop4x8

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ R9, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ R9, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ R9, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func gemm1x8(k int, a *float64, b *float64, c *float64)
// Computes c[0:8] = a[0:k] * panel for a packed k x 8 panel at b.
TEXT ·gemm1x8(SB), NOSPLIT, $0-32
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ c+24(FP), DI

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

loop1x8:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VBROADCASTSD (SI), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	ADDQ $8, SI
	ADDQ $64, DX
	DECQ CX
	JNZ  loop1x8

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// The AVX-512F tile (MatMulInto and GemmPacked alike). One zmm holds
// a whole packed 8-column panel row, so the panel layout is the one the
// AVX2 tiles read. Rows are addressed off two bases (SI for rows 0..3,
// R10 for rows 4..7) with lda and 3*lda as index registers, so the loop
// advances two pointers instead of eight. R15 is left alone: the linker
// clobbers it in dynamically linked builds.
//
// The tile finishes with the register epilogue ep, an Epilogue value:
// EpNone (0) stores the product, EpBias (1) adds the bias row (acc +
// bias, as epilogueRows does), EpBiasReLU (2) also takes max(v, 0) with
// zero as the second source, so NaN maps to 0 exactly as in
// vecAddBiasRelu and the scalar ReLU.

// func gemm8x8(k int, a *float64, lda int, b *float64, c *float64, ldc int, bias *float64, ep int, w int)
// Computes c[0:8][0:w] = a[0:8][0:k] * panel for a packed k x 8 panel at
// b (k >= 1, 1 <= w <= 8), then applies ep with bias[0:w]. A full panel
// (w = 8) runs one VFMADD231PD chain per element in ascending k with A
// as an embedded broadcast: the bits of gemm4x8 and gemm1x8. The partial
// tail panel (w < 8) rounds each product before adding it (VMULPD then
// VADDPD), which is gemmPanelGo's chain. The bias load and the stores
// are masked to w lanes, so nothing past column w is read or written.
TEXT ·gemm8x8(SB), NOSPLIT, $0-72
	MOVQ w+64(FP), CX
	MOVL $1, BX
	SHLL CX, BX
	DECL BX
	KMOVW BX, K1             // lanes 0..w-1
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ b+24(FP), DX
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R9
	SHLQ $3, R8              // lda in bytes
	SHLQ $3, R9              // ldc in bytes
	LEAQ (R8)(R8*2), AX      // 3*lda: rows 3 and 7 off their base
	LEAQ (SI)(R8*4), R10     // a row 4, base of rows 4..7

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	CMPQ BX, $0xff
	JNE  loop8xt

loop8x8:
	VMOVUPD (DX), Z8         // panel row kk
	VFMADD231PD.BCST (SI), Z8, Z0
	VFMADD231PD.BCST (SI)(R8*1), Z8, Z1
	VFMADD231PD.BCST (SI)(R8*2), Z8, Z2
	VFMADD231PD.BCST (SI)(AX*1), Z8, Z3
	VFMADD231PD.BCST (R10), Z8, Z4
	VFMADD231PD.BCST (R10)(R8*1), Z8, Z5
	VFMADD231PD.BCST (R10)(R8*2), Z8, Z6
	VFMADD231PD.BCST (R10)(AX*1), Z8, Z7
	ADDQ $8, SI
	ADDQ $8, R10
	ADDQ $64, DX
	DECQ CX
	JNZ  loop8x8
	JMP  epilogue8x8

loop8xt:
	VMOVUPD (DX), Z8         // panel row kk (zero-padded past w)
	VMULPD.BCST (SI), Z8, Z16
	VMULPD.BCST (SI)(R8*1), Z8, Z17
	VMULPD.BCST (SI)(R8*2), Z8, Z18
	VMULPD.BCST (SI)(AX*1), Z8, Z19
	VMULPD.BCST (R10), Z8, Z20
	VMULPD.BCST (R10)(R8*1), Z8, Z21
	VMULPD.BCST (R10)(R8*2), Z8, Z22
	VMULPD.BCST (R10)(AX*1), Z8, Z23
	VADDPD Z16, Z0, Z0
	VADDPD Z17, Z1, Z1
	VADDPD Z18, Z2, Z2
	VADDPD Z19, Z3, Z3
	VADDPD Z20, Z4, Z4
	VADDPD Z21, Z5, Z5
	VADDPD Z22, Z6, Z6
	VADDPD Z23, Z7, Z7
	ADDQ $8, SI
	ADDQ $8, R10
	ADDQ $64, DX
	DECQ CX
	JNZ  loop8xt

epilogue8x8:
	MOVQ ep+56(FP), BX
	TESTQ BX, BX
	JZ   store8x8
	MOVQ bias+48(FP), R11
	VMOVUPD.Z (R11), K1, Z9
	VADDPD Z9, Z0, Z0
	VADDPD Z9, Z1, Z1
	VADDPD Z9, Z2, Z2
	VADDPD Z9, Z3, Z3
	VADDPD Z9, Z4, Z4
	VADDPD Z9, Z5, Z5
	VADDPD Z9, Z6, Z6
	VADDPD Z9, Z7, Z7
	CMPQ BX, $1
	JEQ  store8x8
	VPXORQ Z10, Z10, Z10
	VMAXPD Z10, Z0, Z0
	VMAXPD Z10, Z1, Z1
	VMAXPD Z10, Z2, Z2
	VMAXPD Z10, Z3, Z3
	VMAXPD Z10, Z4, Z4
	VMAXPD Z10, Z5, Z5
	VMAXPD Z10, Z6, Z6
	VMAXPD Z10, Z7, Z7
store8x8:
	VMOVUPD Z0, K1, (DI)
	ADDQ R9, DI
	VMOVUPD Z1, K1, (DI)
	ADDQ R9, DI
	VMOVUPD Z2, K1, (DI)
	ADDQ R9, DI
	VMOVUPD Z3, K1, (DI)
	ADDQ R9, DI
	VMOVUPD Z4, K1, (DI)
	ADDQ R9, DI
	VMOVUPD Z5, K1, (DI)
	ADDQ R9, DI
	VMOVUPD Z6, K1, (DI)
	ADDQ R9, DI
	VMOVUPD Z7, K1, (DI)
	VZEROUPPER
	RET

// func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (lo, hi uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, lo+0(FP)
	MOVL DX, hi+4(FP)
	RET

// func vecAddBiasRelu(n int, row *float64, bias *float64)
// row[0:n] = max(row+bias, 0) for n a multiple of 4. VMAXPD with the
// value as first source and zero as second maps NaN to 0 — exactly the
// scalar reluFn semantics, so vector and scalar tails agree bitwise.
TEXT ·vecAddBiasRelu(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ row+8(FP), DI
	MOVQ bias+16(FP), SI
	VXORPD Y2, Y2, Y2
loopabr:
	VMOVUPD (DI), Y0
	VADDPD (SI), Y0, Y0
	VMAXPD Y2, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, CX
	JNZ  loopabr
	VZEROUPPER
	RET

// func vecRelu(n int, dst *float64, src *float64)
// dst[0:n] = max(src, 0) for n a multiple of 4 (NaN -> 0).
TEXT ·vecRelu(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	VXORPD Y2, Y2, Y2
looprelu:
	VMOVUPD (SI), Y0
	VMAXPD Y2, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, CX
	JNZ  looprelu
	VZEROUPPER
	RET
