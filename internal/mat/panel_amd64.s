#include "textflag.h"

// The panel kernels use only VBROADCASTSD, VMOVUPD, VXORPD, VMULPD,
// VSUBPD, VADDPD and VDIVPD: each lane rounds its product and its sum or
// difference separately, exactly as the scalar Go loops do. No FMA: its
// single rounding would change bits. A panel is PanelWidth = 32 doubles
// per row, held in the eight accumulators Y0–Y7.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func solveLowerPanelAVX2(l *float64, n int, p *float64)
//
// For i = 0..n-1: acc = P[i]; acc -= L[i][k]·P[k] for k = 0..i-1; then
// P[i] = acc / L[i][i]. Requires n ≥ 1.
TEXT ·solveLowerPanelAVX2(SB), NOSPLIT, $0-24
	MOVQ l+0(FP), SI  // &L[i][0]
	MOVQ n+8(FP), CX
	MOVQ p+16(FP), DI // &P[0][0]
	MOVQ CX, DX
	SHLQ $3, DX       // one L row in bytes
	MOVQ DI, R9       // &P[i][0]
	XORQ R8, R8       // i

solverow:
	VMOVUPD 0(R9), Y0
	VMOVUPD 32(R9), Y1
	VMOVUPD 64(R9), Y2
	VMOVUPD 96(R9), Y3
	VMOVUPD 128(R9), Y4
	VMOVUPD 160(R9), Y5
	VMOVUPD 192(R9), Y6
	VMOVUPD 224(R9), Y7
	MOVQ SI, R11      // &L[i][k]
	MOVQ DI, R12      // &P[k][0]
	MOVQ R8, R13      // steps left: i − k
	TESTQ R13, R13
	JZ solvediag

solvek:
	VBROADCASTSD (R11), Y8
	VMULPD 0(R12), Y8, Y9
	VSUBPD Y9, Y0, Y0
	VMULPD 32(R12), Y8, Y10
	VSUBPD Y10, Y1, Y1
	VMULPD 64(R12), Y8, Y11
	VSUBPD Y11, Y2, Y2
	VMULPD 96(R12), Y8, Y12
	VSUBPD Y12, Y3, Y3
	VMULPD 128(R12), Y8, Y13
	VSUBPD Y13, Y4, Y4
	VMULPD 160(R12), Y8, Y14
	VSUBPD Y14, Y5, Y5
	VMULPD 192(R12), Y8, Y15
	VSUBPD Y15, Y6, Y6
	VMULPD 224(R12), Y8, Y9
	VSUBPD Y9, Y7, Y7
	ADDQ $8, R11
	ADDQ $256, R12
	DECQ R13
	JNZ solvek

solvediag:
	VBROADCASTSD (R11), Y8 // L[i][i]
	VDIVPD Y8, Y0, Y0
	VDIVPD Y8, Y1, Y1
	VDIVPD Y8, Y2, Y2
	VDIVPD Y8, Y3, Y3
	VDIVPD Y8, Y4, Y4
	VDIVPD Y8, Y5, Y5
	VDIVPD Y8, Y6, Y6
	VDIVPD Y8, Y7, Y7
	VMOVUPD Y0, 0(R9)
	VMOVUPD Y1, 32(R9)
	VMOVUPD Y2, 64(R9)
	VMOVUPD Y3, 96(R9)
	VMOVUPD Y4, 128(R9)
	VMOVUPD Y5, 160(R9)
	VMOVUPD Y6, 192(R9)
	VMOVUPD Y7, 224(R9)
	ADDQ $256, R9
	ADDQ DX, SI
	INCQ R8
	CMPQ R8, CX
	JLT solverow

	VZEROUPPER
	RET

// func sqDistPanelAVX2(d, x, zt *float64, n, k int)
//
// For i = 0..n-1: acc = +0; acc += (ZT[j] − X[i][j])² for j = 0..k-1;
// then D[i] = acc. Requires n ≥ 1 and k ≥ 1.
TEXT ·sqDistPanelAVX2(SB), NOSPLIT, $0-40
	MOVQ d+0(FP), DI  // &D[i][0]
	MOVQ x+8(FP), SI  // &X[i][j]
	MOVQ zt+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ k+32(FP), DX

distrow:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ BX, R12      // &ZT[j][0]
	MOVQ DX, R13      // features left

distj:
	VBROADCASTSD (SI), Y8
	VMOVUPD 0(R12), Y9
	VSUBPD Y8, Y9, Y9
	VMULPD Y9, Y9, Y9
	VADDPD Y9, Y0, Y0
	VMOVUPD 32(R12), Y10
	VSUBPD Y8, Y10, Y10
	VMULPD Y10, Y10, Y10
	VADDPD Y10, Y1, Y1
	VMOVUPD 64(R12), Y11
	VSUBPD Y8, Y11, Y11
	VMULPD Y11, Y11, Y11
	VADDPD Y11, Y2, Y2
	VMOVUPD 96(R12), Y12
	VSUBPD Y8, Y12, Y12
	VMULPD Y12, Y12, Y12
	VADDPD Y12, Y3, Y3
	VMOVUPD 128(R12), Y13
	VSUBPD Y8, Y13, Y13
	VMULPD Y13, Y13, Y13
	VADDPD Y13, Y4, Y4
	VMOVUPD 160(R12), Y14
	VSUBPD Y8, Y14, Y14
	VMULPD Y14, Y14, Y14
	VADDPD Y14, Y5, Y5
	VMOVUPD 192(R12), Y15
	VSUBPD Y8, Y15, Y15
	VMULPD Y15, Y15, Y15
	VADDPD Y15, Y6, Y6
	VMOVUPD 224(R12), Y9
	VSUBPD Y8, Y9, Y9
	VMULPD Y9, Y9, Y9
	VADDPD Y9, Y7, Y7
	ADDQ $8, SI
	ADDQ $256, R12
	DECQ R13
	JNZ distj

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	DECQ CX
	JNZ distrow

	VZEROUPPER
	RET
