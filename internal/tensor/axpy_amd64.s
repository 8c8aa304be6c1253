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

// func convfwd8avx2(y *float64, ldy, nf int, w *float64, np int, x *float64, off *int, bias *float64, rows, xs, ys int)
// For filters i < nf of the panel w (np rows of four), rows r < rows and
// columns c < 8:
//   s = +0; s = w[4p+i]*x[off[p] + r*xs + c] + s for p ascending;
//   y[i*ldy + r*ys + c] = s + bias[i].
// Lanes are columns; Y0–Y7 hold four filters × eight columns, so every
// output keeps its own ascending-p chain. rows and np must be positive.
TEXT ·convfwd8avx2(SB), NOSPLIT, $0-88
	MOVQ y+0(FP), DI
	MOVQ ldy+8(FP), AX
	SHLQ $3, AX
	MOVQ nf+16(FP), BX
	MOVQ x+40(FP), SI
	MOVQ bias+56(FP), R9
	MOVQ rows+64(FP), CX
	MOVQ xs+72(FP), DX
	SHLQ $3, DX
	MOVQ ys+80(FP), R8
	SHLQ $3, R8

fwd8_row:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ w+24(FP), R10
	MOVQ off+48(FP), R11
	MOVQ np+32(FP), R12

fwd8_p:
	MOVQ (R11), R13
	VMOVUPD (SI)(R13*8), Y8
	VMOVUPD 32(SI)(R13*8), Y9
	VBROADCASTSD (R10), Y10
	VMULPD  Y8, Y10, Y11
	VMULPD  Y9, Y10, Y12
	VADDPD  Y0, Y11, Y0
	VADDPD  Y1, Y12, Y1
	VBROADCASTSD 8(R10), Y13
	VMULPD  Y8, Y13, Y14
	VMULPD  Y9, Y13, Y15
	VADDPD  Y2, Y14, Y2
	VADDPD  Y3, Y15, Y3
	VBROADCASTSD 16(R10), Y10
	VMULPD  Y8, Y10, Y11
	VMULPD  Y9, Y10, Y12
	VADDPD  Y4, Y11, Y4
	VADDPD  Y5, Y12, Y5
	VBROADCASTSD 24(R10), Y13
	VMULPD  Y8, Y13, Y14
	VMULPD  Y9, Y13, Y15
	VADDPD  Y6, Y14, Y6
	VADDPD  Y7, Y15, Y7
	ADDQ $32, R10
	ADDQ $8, R11
	DECQ R12
	JNZ  fwd8_p

	VBROADCASTSD (R9), Y10
	VADDPD  Y10, Y0, Y0
	VADDPD  Y10, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	CMPQ BX, $1
	JEQ  fwd8_next
	VBROADCASTSD 8(R9), Y10
	VADDPD  Y10, Y2, Y2
	VADDPD  Y10, Y3, Y3
	VMOVUPD Y2, (DI)(AX*1)
	VMOVUPD Y3, 32(DI)(AX*1)
	CMPQ BX, $2
	JEQ  fwd8_next
	VBROADCASTSD 16(R9), Y10
	VADDPD  Y10, Y4, Y4
	VADDPD  Y10, Y5, Y5
	VMOVUPD Y4, (DI)(AX*2)
	VMOVUPD Y5, 32(DI)(AX*2)
	CMPQ BX, $3
	JEQ  fwd8_next
	LEAQ (DI)(AX*2), R13
	VBROADCASTSD 24(R9), Y10
	VADDPD  Y10, Y6, Y6
	VADDPD  Y10, Y7, Y7
	VMOVUPD Y6, (R13)(AX*1)
	VMOVUPD Y7, 32(R13)(AX*1)

fwd8_next:
	ADDQ DX, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  fwd8_row
	VZEROUPPER
	RET

// func convfwd4avx2(y *float64, ldy, nf int, w *float64, np int, x *float64, off *int, bias *float64, rows, xs, ys int)
// convfwd8avx2 over four columns: Y0–Y3 hold four filters × four columns.
TEXT ·convfwd4avx2(SB), NOSPLIT, $0-88
	MOVQ y+0(FP), DI
	MOVQ ldy+8(FP), AX
	SHLQ $3, AX
	MOVQ nf+16(FP), BX
	MOVQ x+40(FP), SI
	MOVQ bias+56(FP), R9
	MOVQ rows+64(FP), CX
	MOVQ xs+72(FP), DX
	SHLQ $3, DX
	MOVQ ys+80(FP), R8
	SHLQ $3, R8

fwd4_row:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ w+24(FP), R10
	MOVQ off+48(FP), R11
	MOVQ np+32(FP), R12

fwd4_p:
	MOVQ (R11), R13
	VMOVUPD (SI)(R13*8), Y8
	VBROADCASTSD (R10), Y10
	VMULPD  Y8, Y10, Y10
	VADDPD  Y0, Y10, Y0
	VBROADCASTSD 8(R10), Y11
	VMULPD  Y8, Y11, Y11
	VADDPD  Y1, Y11, Y1
	VBROADCASTSD 16(R10), Y12
	VMULPD  Y8, Y12, Y12
	VADDPD  Y2, Y12, Y2
	VBROADCASTSD 24(R10), Y13
	VMULPD  Y8, Y13, Y13
	VADDPD  Y3, Y13, Y3
	ADDQ $32, R10
	ADDQ $8, R11
	DECQ R12
	JNZ  fwd4_p

	VBROADCASTSD (R9), Y10
	VADDPD  Y10, Y0, Y0
	VMOVUPD Y0, (DI)
	CMPQ BX, $1
	JEQ  fwd4_next
	VBROADCASTSD 8(R9), Y10
	VADDPD  Y10, Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	CMPQ BX, $2
	JEQ  fwd4_next
	VBROADCASTSD 16(R9), Y10
	VADDPD  Y10, Y2, Y2
	VMOVUPD Y2, (DI)(AX*2)
	CMPQ BX, $3
	JEQ  fwd4_next
	LEAQ (DI)(AX*2), R13
	VBROADCASTSD 24(R9), Y10
	VADDPD  Y10, Y3, Y3
	VMOVUPD Y3, (R13)(AX*1)

fwd4_next:
	ADDQ DX, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  fwd4_row
	VZEROUPPER
	RET

// func convcolsavx2(d *float64, ldd int, w *float64, ldw int, gp *float64, ldg, nf, blocks int)
// For rows p < 4·blocks and columns j < 4:
//   s = +0; s = w[f*ldw+p]*gp[f*ldg+j] + s for f < nf ascending;
//   d[p*ldd+j] = s.
// Lanes are the four columns, one accumulator per row of a 4-row block
// (Y0–Y3). nf and blocks must be positive.
TEXT ·convcolsavx2(SB), NOSPLIT, $0-64
	MOVQ d+0(FP), DI
	MOVQ ldd+8(FP), AX
	SHLQ $3, AX
	MOVQ w+16(FP), SI
	MOVQ ldw+24(FP), R8
	SHLQ $3, R8
	MOVQ ldg+40(FP), R9
	SHLQ $3, R9
	MOVQ blocks+56(FP), CX

cols_block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R10
	MOVQ gp+32(FP), R11
	MOVQ nf+48(FP), R12

cols_f:
	VMOVUPD (R11), Y8
	VBROADCASTSD (R10), Y9
	VMULPD  Y8, Y9, Y9
	VADDPD  Y0, Y9, Y0
	VBROADCASTSD 8(R10), Y10
	VMULPD  Y8, Y10, Y10
	VADDPD  Y1, Y10, Y1
	VBROADCASTSD 16(R10), Y11
	VMULPD  Y8, Y11, Y11
	VADDPD  Y2, Y11, Y2
	VBROADCASTSD 24(R10), Y12
	VMULPD  Y8, Y12, Y12
	VADDPD  Y3, Y12, Y3
	ADDQ R8, R10
	ADDQ R9, R11
	DECQ R12
	JNZ  cols_f

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(AX*1)
	VMOVUPD Y2, (DI)(AX*2)
	LEAQ (DI)(AX*2), R13
	VMOVUPD Y3, (R13)(AX*1)
	LEAQ (R13)(AX*2), DI
	ADDQ $32, SI
	DECQ CX
	JNZ  cols_block
	VZEROUPPER
	RET

// func convgrad4avx2(d, gp, x *float64, off *int, batch, outH, outW, rowSkip, chw int)
// For the 4×4 block d[4k+i] (im2col row k at image offset off[k],
// filter lane i) and each image b < batch in order:
//   s = +0; s = s + g[b][j][i]*x[b*chw + off[k] + pos(j)] for output
//   position j ascending; d[4k+i] = d[4k+i] + s,
// where pos walks outH rows of outW pixels, rowSkip apart. Lanes are the
// four filters (one g row per j), one accumulator per k; the block lives
// in Y0–Y3 across all images. batch, outH and outW must be positive.
TEXT ·convgrad4avx2(SB), NOSPLIT, $0-72
	MOVQ d+0(FP), AX
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	MOVQ off+24(FP), AX      // byte offsets of the four rows: R8–R11
	MOVQ (AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	MOVQ gp+8(FP), BX
	MOVQ x+16(FP), SI
	MOVQ batch+32(FP), DI
	MOVQ rowSkip+56(FP), R12
	MOVQ chw+64(FP), R13

grad_image:
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, AX
	MOVQ outH+40(FP), DX

grad_row:
	MOVQ outW+48(FP), CX

grad_col:
	VMOVUPD (BX), Y8
	VBROADCASTSD (AX)(R8*1), Y9
	VMULPD  Y9, Y8, Y9
	VADDPD  Y9, Y4, Y4
	VBROADCASTSD (AX)(R9*1), Y10
	VMULPD  Y10, Y8, Y10
	VADDPD  Y10, Y5, Y5
	VBROADCASTSD (AX)(R10*1), Y11
	VMULPD  Y11, Y8, Y11
	VADDPD  Y11, Y6, Y6
	VBROADCASTSD (AX)(R11*1), Y12
	VMULPD  Y12, Y8, Y12
	VADDPD  Y12, Y7, Y7
	ADDQ $32, BX
	ADDQ $8, AX
	DECQ CX
	JNZ  grad_col

	LEAQ (AX)(R12*8), AX
	DECQ DX
	JNZ  grad_row

	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	LEAQ (SI)(R13*8), SI
	DECQ DI
	JNZ  grad_image

	MOVQ d+0(FP), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VZEROUPPER
	RET
