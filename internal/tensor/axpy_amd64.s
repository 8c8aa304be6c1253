//go:build amd64

#include "textflag.h"

// AVX2 microkernels. Each lane performs the same IEEE-754 multiply then
// add as the scalar loops in axpy_generic.go (VMULPD / VADDPD, never
// fused), and lanes are independent accumulation chains, so results are
// bit-identical to the scalar path.

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpy4avx2(o0, o1, o2, o3, bp *float64, v *[4]float64, n int)
// oK[j] += v[K] * bp[j] for j in [0, n); n must be a multiple of 4.
TEXT ·axpy4avx2(SB), NOSPLIT, $0-56
	MOVQ o0+0(FP), DI
	MOVQ o1+8(FP), SI
	MOVQ o2+16(FP), DX
	MOVQ o3+24(FP), CX
	MOVQ bp+32(FP), BX
	MOVQ v+40(FP), AX
	MOVQ n+48(FP), R8
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	XORQ R9, R9
	MOVQ R8, R10
	ANDQ $-8, R10 // 8-column unrolled portion

axpy4_loop8:
	CMPQ R9, R10
	JGE  axpy4_loop4
	VMOVUPD (BX)(R9*8), Y4
	VMOVUPD 32(BX)(R9*8), Y9
	VMULPD  Y4, Y0, Y5
	VMULPD  Y9, Y0, Y10
	VADDPD  (DI)(R9*8), Y5, Y5
	VADDPD  32(DI)(R9*8), Y10, Y10
	VMOVUPD Y5, (DI)(R9*8)
	VMOVUPD Y10, 32(DI)(R9*8)
	VMULPD  Y4, Y1, Y6
	VMULPD  Y9, Y1, Y11
	VADDPD  (SI)(R9*8), Y6, Y6
	VADDPD  32(SI)(R9*8), Y11, Y11
	VMOVUPD Y6, (SI)(R9*8)
	VMOVUPD Y11, 32(SI)(R9*8)
	VMULPD  Y4, Y2, Y7
	VMULPD  Y9, Y2, Y12
	VADDPD  (DX)(R9*8), Y7, Y7
	VADDPD  32(DX)(R9*8), Y12, Y12
	VMOVUPD Y7, (DX)(R9*8)
	VMOVUPD Y12, 32(DX)(R9*8)
	VMULPD  Y4, Y3, Y8
	VMULPD  Y9, Y3, Y13
	VADDPD  (CX)(R9*8), Y8, Y8
	VADDPD  32(CX)(R9*8), Y13, Y13
	VMOVUPD Y8, (CX)(R9*8)
	VMOVUPD Y13, 32(CX)(R9*8)
	ADDQ    $8, R9
	JMP     axpy4_loop8

axpy4_loop4:
	CMPQ R9, R8
	JGE  axpy4_done
	VMOVUPD (BX)(R9*8), Y4
	VMULPD  Y4, Y0, Y5
	VADDPD  (DI)(R9*8), Y5, Y5
	VMOVUPD Y5, (DI)(R9*8)
	VMULPD  Y4, Y1, Y6
	VADDPD  (SI)(R9*8), Y6, Y6
	VMOVUPD Y6, (SI)(R9*8)
	VMULPD  Y4, Y2, Y7
	VADDPD  (DX)(R9*8), Y7, Y7
	VMOVUPD Y7, (DX)(R9*8)
	VMULPD  Y4, Y3, Y8
	VADDPD  (CX)(R9*8), Y8, Y8
	VMOVUPD Y8, (CX)(R9*8)
	ADDQ    $4, R9
	JMP     axpy4_loop4

axpy4_done:
	VZEROUPPER
	RET

// func axpy1avx2(o, bp *float64, v float64, n int)
// o[j] += v * bp[j] for j in [0, n); n must be a multiple of 4.
TEXT ·axpy1avx2(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), DI
	MOVQ bp+8(FP), BX
	VBROADCASTSD v+16(FP), Y0
	MOVQ n+24(FP), R8
	XORQ R9, R9
	MOVQ R8, R10
	ANDQ $-16, R10 // 16-column unrolled portion

axpy1_loop16:
	CMPQ R9, R10
	JGE  axpy1_loop4
	VMOVUPD (BX)(R9*8), Y4
	VMOVUPD 32(BX)(R9*8), Y5
	VMOVUPD 64(BX)(R9*8), Y6
	VMOVUPD 96(BX)(R9*8), Y7
	VMULPD  Y4, Y0, Y4
	VMULPD  Y5, Y0, Y5
	VMULPD  Y6, Y0, Y6
	VMULPD  Y7, Y0, Y7
	VADDPD  (DI)(R9*8), Y4, Y4
	VADDPD  32(DI)(R9*8), Y5, Y5
	VADDPD  64(DI)(R9*8), Y6, Y6
	VADDPD  96(DI)(R9*8), Y7, Y7
	VMOVUPD Y4, (DI)(R9*8)
	VMOVUPD Y5, 32(DI)(R9*8)
	VMOVUPD Y6, 64(DI)(R9*8)
	VMOVUPD Y7, 96(DI)(R9*8)
	ADDQ    $16, R9
	JMP     axpy1_loop16

axpy1_loop4:
	CMPQ R9, R8
	JGE  axpy1_done
	VMOVUPD (BX)(R9*8), Y4
	VMULPD  Y4, Y0, Y4
	VADDPD  (DI)(R9*8), Y4, Y4
	VMOVUPD Y4, (DI)(R9*8)
	ADDQ    $4, R9
	JMP     axpy1_loop4

axpy1_done:
	VZEROUPPER
	RET

// func copyRowsavx2(dst, src *float64, rows, n, dstStride, srcStride int)
// dst[r*dstStride+i] = src[r*srcStride+i] for r in [0, rows), i in
// [0, n): four floats a move, then a scalar tail. rows must be positive.
TEXT ·copyRowsavx2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), CX
	MOVQ n+24(FP), DX
	MOVQ dstStride+32(FP), R8
	SHLQ $3, R8
	MOVQ srcStride+40(FP), R9
	SHLQ $3, R9
	MOVQ DX, R10
	ANDQ $-4, R10

copy_row:
	XORQ AX, AX
	TESTQ R10, R10
	JEQ  copy_tail

copy_vec:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, R10
	JLT     copy_vec

copy_tail:
	CMPQ AX, DX
	JGE  copy_next
	MOVQ (SI)(AX*8), BX
	MOVQ BX, (DI)(AX*8)
	INCQ AX
	JMP  copy_tail

copy_next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ CX
	JNZ  copy_row
	VZEROUPPER
	RET

// func dot4x4chunkedavx2(d *float64, ldd int, a, b *float64, ld, k, chunk int)
// For the 4×4 block d[i*ldd+j], i, j in [0, 4), and every chunk
// [c0, min(c0+chunk, k)) of [0, k) in ascending order:
//   s = +0; s += a[i*ld+p] * b[j*ld+p] for p ascending; d[i*ldd+j] += s.
// Lanes are the four j (one gathered b column per p), one accumulator
// per row i, so every output keeps its own ascending-p chain. The block
// of d lives in Y0–Y3 for the whole call. k and chunk must be positive.
TEXT ·dot4x4chunkedavx2(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), DI
	MOVQ ldd+8(FP), R8
	SHLQ $3, R8
	LEAQ (DI)(R8*2), R9
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R8*1), Y1
	VMOVUPD (R9), Y2
	VMOVUPD (R9)(R8*1), Y3

	MOVQ ld+32(FP), R9
	SHLQ $3, R9
	MOVQ a+16(FP), AX        // a rows 0..3: AX BX CX DX
	LEAQ (AX)(R9*1), BX
	LEAQ (AX)(R9*2), CX
	LEAQ (BX)(R9*2), DX
	MOVQ b+24(FP), SI        // b rows 0..3: SI DI R8 R9
	LEAQ (SI)(R9*1), DI
	LEAQ (SI)(R9*2), R8
	LEAQ (DI)(R9*2), R9
	MOVQ k+40(FP), R12
	MOVQ chunk+48(FP), R13
	XORQ R10, R10            // p

dot4_chunk:
	CMPQ R10, R12
	JGE  dot4_done
	LEAQ (R10)(R13*1), R11   // chunk end = min(p+chunk, k)
	CMPQ R11, R12
	CMOVQGT R12, R11
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

dot4_p:
	VMOVSD  (SI)(R10*8), X8
	VMOVHPD (DI)(R10*8), X8, X8
	VMOVSD  (R8)(R10*8), X9
	VMOVHPD (R9)(R10*8), X9, X9
	VINSERTF128 $1, X9, Y8, Y8 // Y8 = b0..b3 at p
	VBROADCASTSD (AX)(R10*8), Y10
	VBROADCASTSD (BX)(R10*8), Y11
	VBROADCASTSD (CX)(R10*8), Y12
	VBROADCASTSD (DX)(R10*8), Y13
	VMULPD Y8, Y10, Y10
	VMULPD Y8, Y11, Y11
	VMULPD Y8, Y12, Y12
	VMULPD Y8, Y13, Y13
	VADDPD Y10, Y4, Y4
	VADDPD Y11, Y5, Y5
	VADDPD Y12, Y6, Y6
	VADDPD Y13, Y7, Y7
	INCQ R10
	CMPQ R10, R11
	JLT  dot4_p

	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	JMP  dot4_chunk

dot4_done:
	MOVQ d+0(FP), DI
	MOVQ ldd+8(FP), R8
	SHLQ $3, R8
	LEAQ (DI)(R8*2), R9
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R8*1)
	VMOVUPD Y2, (R9)
	VMOVUPD Y3, (R9)(R8*1)
	VZEROUPPER
	RET
