#include "textflag.h"

// A panel is PanelWidth = 32 doubles per row. The solve and distance
// kernels hold one row in the eight accumulators Y0–Y7 and use only
// VBROADCASTSD, VMOVUPD, VXORPD, VMULPD, VSUBPD, VADDPD and VDIVPD: each
// lane rounds its product and its sum or difference separately, exactly
// as the scalar Go loops do.
//
// The exp kernel expRowsFMA runs math.Exp's own amd64 algorithm
// ($GOROOT/src/math/exp_amd64.s) four lanes at a time, on archExp's FMA
// path: it fuses exactly where that path does (VFNMADD231PD for the two
// ln 2 reduction steps, VFMADD213PD for the seven polynomial steps and for
// the last squaring with its +1), and that is the only fusing in this
// file. ExpPanel runs it only where math.Exp takes that path too
// (panel_amd64.go).

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

// The constants of exp_amd64.s, each in four lanes.
#define BCAST4(name, v) \
	DATA name<>+0(SB)/8, v \
	DATA name<>+8(SB)/8, v \
	DATA name<>+16(SB)/8, v \
	DATA name<>+24(SB)/8, v \
	GLOBL name<>(SB), RODATA|NOPTR, $32

BCAST4(expLog2e, $1.4426950408889634073599246810018920)
BCAST4(expLn2U, $0.69314718055966295651160180568695068359375)
BCAST4(expLn2L, $0.28235290563031577122588448175013436025525412068e-12)
BCAST4(expSixteenth, $0.0625)
BCAST4(expC7, $2.4801587301587301587e-5)
BCAST4(expC6, $1.9841269841269841270e-4)
BCAST4(expC5, $1.3888888888888888889e-3)
BCAST4(expC4, $8.3333333333333333333e-3)
BCAST4(expC3, $4.1666666666666666667e-2)
BCAST4(expC2, $1.6666666666666666667e-1)
BCAST4(expHalf, $0.5)
BCAST4(expOne, $1.0)
BCAST4(expTwo, $2.0)
BCAST4(expAbsMask, $0x7fffffffffffffff)

// The exponent bias, in four 32-bit lanes.
DATA expBias<>+0(SB)/4, $1023
DATA expBias<>+4(SB)/4, $1023
DATA expBias<>+8(SB)/4, $1023
DATA expBias<>+12(SB)/4, $1023
GLOBL expBias<>(SB), RODATA|NOPTR, $16

// The exp kernel works on two vectors of a row at a time, A and B, whose
// steps interleave stage by stage so that one vector's chain of dependent
// steps can overlap the other's. A uses Y0 (x), Y1, X2/Y2 (the integer
// exponent) and Y3 (the polynomial); B uses Y4, Y5, X6/Y6 and Y7.

// EXPIN(off, x, t, ei) loads the four d² at byte offset off of the row at
// DI and starts the exp: x = d²/(−denom), which is Go's (−d²)/denom bit
// for bit (a quotient's magnitude rounds apart from its sign), then
// ei = e = round(x·log2e) as four int32 (VCVTPD2DQ rounds to nearest even,
// as CVTSD2SL does) and t = e.
#define EXPIN(off, x, t, ei) \
	VMOVUPD off(DI), x \
	VDIVPD Y15, x, x \
	VMULPD expLog2e<>(SB), x, t \
	VCVTPD2DQY t, ei \
	VCVTDQ2PD ei, t

// EXPOUT(off, x, t, ei) ends the exp, x = r·2^e with the exponent bits
// (e+1023)<<52, then adds e·weight (Y12) into sums at BX and stores
// e·scale (Y11) back over the d².
#define EXPOUT(off, x, t, ei) \
	VPADDD expBias<>(SB), ei, ei \
	VPMOVZXDQ ei, t \
	VPSLLQ $52, t, t \
	VMULPD t, x, x \
	VMULPD Y12, x, t \
	VADDPD off(BX), t, t \
	VMOVUPD t, off(BX) \
	VMULPD Y11, x, x \
	VMOVUPD x, off(DI)

// The three middle stages of archExp's FMA path: the ln 2 reduction and
// the scaling by 1/16, the polynomial p and x·p, the four squarings and
// the final +1, the last squaring fused with it.
#define REDFMA(x, t) \
	VFNMADD231PD expLn2U<>(SB), t, x \
	VFNMADD231PD expLn2L<>(SB), t, x \
	VMULPD expSixteenth<>(SB), x, x

#define POLYFMA(x, p) \
	VMOVUPD expC7<>(SB), p \
	VFMADD213PD expC6<>(SB), x, p \
	VFMADD213PD expC5<>(SB), x, p \
	VFMADD213PD expC4<>(SB), x, p \
	VFMADD213PD expC3<>(SB), x, p \
	VFMADD213PD expC2<>(SB), x, p \
	VFMADD213PD expHalf<>(SB), x, p \
	VFMADD213PD expOne<>(SB), x, p \
	VMULPD p, x, x

#define SQFMA(x, t) \
	VADDPD expTwo<>(SB), x, t \
	VMULPD t, x, x \
	VADDPD expTwo<>(SB), x, t \
	VMULPD t, x, x \
	VADDPD expTwo<>(SB), x, t \
	VMULPD t, x, x \
	VADDPD expTwo<>(SB), x, t \
	VFMADD213PD expOne<>(SB), t, x

// EXPFMA(a, b) runs the exp on the vectors at byte offsets a and b of the
// row.
#define EXPFMA(a, b) \
	EXPIN(a, Y0, Y1, X2) \
	EXPIN(b, Y4, Y5, X6) \
	REDFMA(Y0, Y1) \
	REDFMA(Y4, Y5) \
	POLYFMA(Y0, Y3) \
	POLYFMA(Y4, Y7) \
	SQFMA(Y0, Y1) \
	SQFMA(Y4, Y5) \
	EXPOUT(a, Y0, Y1, X2) \
	EXPOUT(b, Y4, Y5, X6)

// func expRowsFMA(p *float64, n int, negDenom, hi float64, weight, scale, sums *float64) int
//
// For each row i of the n×32 panel at p, in order: if every d² of the row
// lies in [−hi, hi] (|d²| ≤ hi, ordered, so a NaN fails), e = exp(d²/negDenom)
// by archExp's FMA path; sums[q] += e·weight[i]; p[i][q] = e·scale[i].
// Otherwise stop. It returns the number of rows done. Requires n ≥ 1.
TEXT ·expRowsFMA(SB), NOSPLIT, $0-64
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), CX
	MOVSD negDenom+16(FP), X15
	VBROADCASTSD X15, Y15
	MOVSD hi+24(FP), X14
	VBROADCASTSD X14, Y14
	MOVQ weight+32(FP), SI
	MOVQ scale+40(FP), DX
	MOVQ sums+48(FP), BX
	VMOVUPD expAbsMask<>(SB), Y13
	XORQ R8, R8
expcheck:
	VANDPD 0(DI), Y13, Y0
	VANDPD 32(DI), Y13, Y1
	VANDPD 64(DI), Y13, Y2
	VANDPD 96(DI), Y13, Y3
	VANDPD 128(DI), Y13, Y4
	VANDPD 160(DI), Y13, Y5
	VANDPD 192(DI), Y13, Y6
	VANDPD 224(DI), Y13, Y7
	VCMPPD $0x12, Y14, Y0, Y0
	VCMPPD $0x12, Y14, Y1, Y1
	VCMPPD $0x12, Y14, Y2, Y2
	VCMPPD $0x12, Y14, Y3, Y3
	VCMPPD $0x12, Y14, Y4, Y4
	VCMPPD $0x12, Y14, Y5, Y5
	VCMPPD $0x12, Y14, Y6, Y6
	VCMPPD $0x12, Y14, Y7, Y7
	VANDPD Y1, Y0, Y0
	VANDPD Y3, Y2, Y2
	VANDPD Y5, Y4, Y4
	VANDPD Y7, Y6, Y6
	VANDPD Y2, Y0, Y0
	VANDPD Y6, Y4, Y4
	VANDPD Y4, Y0, Y0
	VMOVMSKPD Y0, AX
	CMPQ AX, $15
	JNE expdone
	VBROADCASTSD (SI), Y12
	VBROADCASTSD (DX), Y11
	EXPFMA(0, 32)
	EXPFMA(64, 96)
	EXPFMA(128, 160)
	EXPFMA(192, 224)
	ADDQ $256, DI
	ADDQ $8, SI
	ADDQ $8, DX
	INCQ R8
	CMPQ R8, CX
	JLT expcheck
expdone:
	MOVQ R8, ret+56(FP)
	VZEROUPPER
	RET
