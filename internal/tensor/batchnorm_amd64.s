// AVX2 bodies of BatchNorm's passes. See batchnorm.go for the contract:
// in the elementwise passes each lane is one element, in the reductions
// one channel's chain; every lane runs the scalar expression's operations
// in its order, each correctly rounded (never FMA), with the first operand
// of every operation kept first.

#include "textflag.h"

// func bnNormAVX2(out, x *float64, n, c, plane int, mean, invStd, gamma, beta *float64)
//
// Register plan:
//   DI — out cursor, SI — x cursor, R8 — samples left, R9 — channels left,
//   R10 — plane, CX — positions left
//   R11, R12, R13, AX — the channel's μ, invStd, γ, β
//   Y12..Y15 — μ, invStd, γ, β broadcast; Y0, Y1 — lanes
TEXT ·bnNormAVX2(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), R8
	MOVQ plane+32(FP), R10

normSample:
	MOVQ c+24(FP), R9
	MOVQ mean+40(FP), R11
	MOVQ invStd+48(FP), R12
	MOVQ gamma+56(FP), R13
	MOVQ beta+64(FP), AX

normChannel:
	VBROADCASTSD (R11), Y12
	VBROADCASTSD (R12), Y13
	VBROADCASTSD (R13), Y14
	VBROADCASTSD (AX), Y15
	MOVQ         R10, CX

norm8:
	CMPQ    CX, $8
	JLT     norm4
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VSUBPD  Y12, Y0, Y0   // x − μ
	VSUBPD  Y12, Y1, Y1
	VMULPD  Y13, Y0, Y0   // x̂
	VMULPD  Y13, Y1, Y1
	VMULPD  Y0, Y14, Y0   // γ·x̂
	VMULPD  Y1, Y14, Y1
	VADDPD  Y15, Y0, Y0   // + β
	VADDPD  Y15, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JMP     norm8

norm4:
	CMPQ    CX, $4
	JLT     normTail
	VMOVUPD (SI), Y0
	VSUBPD  Y12, Y0, Y0
	VMULPD  Y13, Y0, Y0
	VMULPD  Y0, Y14, Y0
	VADDPD  Y15, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX

normTail:
	TESTQ  CX, CX
	JEQ    normNext
	VMOVSD (SI), X0
	VSUBSD X12, X0, X0
	VMULSD X13, X0, X0
	VMULSD X0, X14, X0
	VADDSD X15, X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    normTail

normNext:
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, AX
	DECQ R9
	JNZ  normChannel
	DECQ R8
	JNZ  normSample
	VZEROUPPER
	RET

// func bnDxAVX2(dx, dy, x *float64, n, c, plane int, mean, invStd, gamma, sumDy, sumDyXhat *float64, m float64)
//
// Register plan:
//   DI — dx cursor, SI — dy cursor, DX — x cursor, R8 — samples left,
//   R9 — channels left, R10 — plane, CX — positions left
//   R11, R12, R13, AX, BX — the channel's μ, invStd, γ, sumDy, sumDyXhat
//   Y8 — m, Y11 — sumDyXhat, Y12 — μ, Y13 — invStd, Y14 — k = γ·invStd,
//   Y15 — sumDy/m, all broadcast; Y0..Y5 — lanes
TEXT ·bnDxAVX2(SB), NOSPLIT, $0-96
	MOVQ         dx+0(FP), DI
	MOVQ         dy+8(FP), SI
	MOVQ         x+16(FP), DX
	MOVQ         n+24(FP), R8
	MOVQ         plane+40(FP), R10
	VBROADCASTSD m+88(FP), Y8

dxSample:
	MOVQ c+32(FP), R9
	MOVQ mean+48(FP), R11
	MOVQ invStd+56(FP), R12
	MOVQ gamma+64(FP), R13
	MOVQ sumDy+72(FP), AX
	MOVQ sumDyXhat+80(FP), BX

dxChannel:
	VBROADCASTSD (R11), Y12
	VBROADCASTSD (R12), Y13
	VMOVSD       (R13), X14
	VMULSD       X13, X14, X14 // k = γ·invStd
	VBROADCASTSD X14, Y14
	VMOVSD       (AX), X15
	VDIVSD       X8, X15, X15  // sumDy/m
	VBROADCASTSD X15, Y15
	VBROADCASTSD (BX), Y11
	MOVQ         R10, CX

dx8:
	CMPQ    CX, $8
	JLT     dx4
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y3
	VSUBPD  Y12, Y0, Y0    // x − μ
	VSUBPD  Y12, Y3, Y3
	VMULPD  Y13, Y0, Y0    // x̂
	VMULPD  Y13, Y3, Y3
	VMULPD  Y11, Y0, Y0    // x̂·sumDyXhat
	VMULPD  Y11, Y3, Y3
	VDIVPD  Y8, Y0, Y0     // /m
	VDIVPD  Y8, Y3, Y3
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y4
	VSUBPD  Y15, Y1, Y1    // dy − sumDy/m
	VSUBPD  Y15, Y4, Y4
	VSUBPD  Y0, Y1, Y1     // (dy − sumDy/m) − (x̂·sumDyXhat)/m
	VSUBPD  Y3, Y4, Y4
	VMULPD  Y1, Y14, Y1    // k·(…)
	VMULPD  Y4, Y14, Y4
	VMOVUPD (DI), Y2
	VMOVUPD 32(DI), Y5
	VADDPD  Y1, Y2, Y2     // dx + k·(…)
	VADDPD  Y4, Y5, Y5
	VMOVUPD Y2, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    $64, DX
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JMP     dx8

dx4:
	CMPQ    CX, $4
	JLT     dxTail
	VMOVUPD (DX), Y0
	VSUBPD  Y12, Y0, Y0
	VMULPD  Y13, Y0, Y0
	VMULPD  Y11, Y0, Y0
	VDIVPD  Y8, Y0, Y0
	VMOVUPD (SI), Y1
	VSUBPD  Y15, Y1, Y1
	VSUBPD  Y0, Y1, Y1
	VMULPD  Y1, Y14, Y1
	VMOVUPD (DI), Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, DX
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX

dxTail:
	TESTQ  CX, CX
	JEQ    dxNext
	VMOVSD (DX), X0
	VSUBSD X12, X0, X0
	VMULSD X13, X0, X0
	VMULSD X11, X0, X0
	VDIVSD X8, X0, X0
	VMOVSD (SI), X1
	VSUBSD X15, X1, X1
	VSUBSD X0, X1, X1
	VMULSD X1, X14, X1
	VMOVSD (DI), X2
	VADDSD X1, X2, X2
	VMOVSD X2, (DI)
	ADDQ   $8, DX
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    dxTail

dxNext:
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, AX
	ADDQ $8, BX
	DECQ R9
	JNZ  dxChannel
	DECQ R8
	JNZ  dxSample
	VZEROUPPER
	RET

// The per-channel reductions. Lanes are channels: two groups of four
// consecutive channels (A at channel gA, B at gB; the groups may overlap
// or coincide, a lane then repeats another's chain bit for bit) run side
// by side, and each lane is one channel's chain in ascending (sample,
// position) order. Four channels' rows are transposed in registers two
// positions at a time: the rows' pairs r0|r2 and r1|r3 share a register
// each (VMOVUPD, VINSERTF128), and VUNPCKLPD / VUNPCKHPD make the columns
// (r0[p], r1[p], r2[p], r3[p]) and (…[p+1]). An odd plane's last position
// is gathered with VMOVSD / VMOVHPD.
//
// Shared register plan:
//   SI, DI — group A's and B's row-0 cursor in x; R8, R9 — in dy
//   R10 — plane bytes (P), R11 — 3P, DX — sample stride − P
//   BX — samples left, CX — position pairs left, AX — plane

// BN_COLS2 loads the columns of positions p and p+1 of the four rows at
// base into c0 and c1 (Y0, Y1 are clobbered).
#define BN_COLS2(base, c0, c1) \
	VMOVUPD     (base), X0; \
	VINSERTF128 $1, (base)(R10*2), Y0, Y0; \
	VMOVUPD     (base)(R10*1), X1; \
	VINSERTF128 $1, (base)(R11*1), Y1, Y1; \
	VUNPCKLPD   Y1, Y0, c0; \
	VUNPCKHPD   Y1, Y0, c1

// BN_COL1 gathers the column of position p of the four rows at base into
// c (Y0, Y1 are clobbered).
#define BN_COL1(base, c) \
	VMOVSD      (base), X0; \
	VMOVHPD     (base)(R10*1), X0, X0; \
	VMOVSD      (base)(R10*2), X1; \
	VMOVHPD     (base)(R11*1), X1, X1; \
	VINSERTF128 $1, X1, Y0, c

// BN_SETUP loads the geometry from the frame: x at xOff, gA at gAOff,
// gB at gBOff, n, c and plane at nOff, cOff, plOff. It leaves SI and DI
// on the groups' rows in x, AX = plane, R10 = P, R11 = 3P, DX = c·P − P,
// BX = n, and R12, R13 = gA·8, gB·8.
#define BN_SETUP(xOff, nOff, cOff, plOff, gAOff, gBOff) \
	MOVQ xOff(FP), SI; \
	MOVQ plOff(FP), AX; \
	MOVQ AX, R10; \
	SHLQ $3, R10; \
	LEAQ (R10)(R10*2), R11; \
	MOVQ cOff(FP), DX; \
	IMULQ R10, DX; \
	SUBQ R10, DX; \
	MOVQ nOff(FP), BX; \
	MOVQ SI, DI; \
	MOVQ gAOff(FP), R12; \
	MOVQ R12, CX; \
	IMULQ R10, CX; \
	ADDQ CX, SI; \
	SHLQ $3, R12; \
	MOVQ gBOff(FP), R13; \
	MOVQ R13, CX; \
	IMULQ R10, CX; \
	ADDQ CX, DI; \
	SHLQ $3, R13

// func bnSumAVX2(sum, x *float64, n, c, plane, gA, gB int)
//
// sum[g+l] = Σ x over channel g+l's rows, for g = gA, gB and l = 0…3.
// Y8, Y9 — the sums of A and B.
TEXT ·bnSumAVX2(SB), NOSPLIT, $0-56
	BN_SETUP(x+8, n+16, c+24, plane+32, gA+40, gB+48)
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9

sumSample:
	MOVQ AX, CX
	SHRQ $1, CX

sumPair:
	TESTQ    CX, CX
	JEQ      sumOdd
	BN_COLS2(SI, Y2, Y3)
	BN_COLS2(DI, Y4, Y5)
	VADDPD   Y2, Y8, Y8
	VADDPD   Y4, Y9, Y9
	VADDPD   Y3, Y8, Y8
	VADDPD   Y5, Y9, Y9
	ADDQ     $16, SI
	ADDQ     $16, DI
	DECQ     CX
	JMP      sumPair

sumOdd:
	TESTQ   $1, AX
	JEQ     sumNext
	BN_COL1(SI, Y2)
	BN_COL1(DI, Y4)
	VADDPD  Y2, Y8, Y8
	VADDPD  Y4, Y9, Y9
	ADDQ    $8, SI
	ADDQ    $8, DI

sumNext:
	ADDQ DX, SI
	ADDQ DX, DI
	DECQ BX
	JNZ  sumSample
	MOVQ sum+0(FP), CX
	VMOVUPD Y8, (CX)(R12*1)
	VMOVUPD Y9, (CX)(R13*1)
	VZEROUPPER
	RET

// func bnSqDevAVX2(sum, x *float64, n, c, plane, gA, gB int, mean *float64)
//
// sum[g+l] = Σ (x − μ)² over channel g+l's rows, each d = x − μ rounded,
// then d·d, then the add.
// Y8, Y9 — the sums of A and B; Y12, Y13 — their μ.
TEXT ·bnSqDevAVX2(SB), NOSPLIT, $0-64
	BN_SETUP(x+8, n+16, c+24, plane+32, gA+40, gB+48)
	MOVQ    mean+56(FP), CX
	VMOVUPD (CX)(R12*1), Y12
	VMOVUPD (CX)(R13*1), Y13
	VXORPD  Y8, Y8, Y8
	VXORPD  Y9, Y9, Y9

sqSample:
	MOVQ AX, CX
	SHRQ $1, CX

sqPair:
	TESTQ    CX, CX
	JEQ      sqOdd
	BN_COLS2(SI, Y2, Y3)
	BN_COLS2(DI, Y4, Y5)
	VSUBPD   Y12, Y2, Y2
	VSUBPD   Y12, Y3, Y3
	VSUBPD   Y13, Y4, Y4
	VSUBPD   Y13, Y5, Y5
	VMULPD   Y2, Y2, Y2
	VMULPD   Y3, Y3, Y3
	VMULPD   Y4, Y4, Y4
	VMULPD   Y5, Y5, Y5
	VADDPD   Y2, Y8, Y8
	VADDPD   Y4, Y9, Y9
	VADDPD   Y3, Y8, Y8
	VADDPD   Y5, Y9, Y9
	ADDQ     $16, SI
	ADDQ     $16, DI
	DECQ     CX
	JMP      sqPair

sqOdd:
	TESTQ   $1, AX
	JEQ     sqNext
	BN_COL1(SI, Y2)
	BN_COL1(DI, Y4)
	VSUBPD  Y12, Y2, Y2
	VSUBPD  Y13, Y4, Y4
	VMULPD  Y2, Y2, Y2
	VMULPD  Y4, Y4, Y4
	VADDPD  Y2, Y8, Y8
	VADDPD  Y4, Y9, Y9
	ADDQ    $8, SI
	ADDQ    $8, DI

sqNext:
	ADDQ DX, SI
	ADDQ DX, DI
	DECQ BX
	JNZ  sqSample
	MOVQ sum+0(FP), CX
	VMOVUPD Y8, (CX)(R12*1)
	VMOVUPD Y9, (CX)(R13*1)
	VZEROUPPER
	RET

// func bnGradSumsAVX2(sumDy, sumDyXhat, dy, x *float64, n, c, plane, gA, gB int, mean, invStd *float64)
//
// sumDy[g+l] = Σ dy and sumDyXhat[g+l] = Σ dy·x̂ with x̂ = (x − μ)·invStd,
// over channel g+l's rows: the four chains of A and of B side by side.
// Y8, Y9 — sumDy of A and B; Y10, Y11 — sumDyXhat; Y12, Y13 — μ; Y14, Y15 —
// invStd.
TEXT ·bnGradSumsAVX2(SB), NOSPLIT, $0-88
	BN_SETUP(x+24, n+32, c+40, plane+48, gA+56, gB+64)
	MOVQ    dy+16(FP), R8
	MOVQ    R8, R9
	SUBQ    x+24(FP), R8
	SUBQ    x+24(FP), R9
	ADDQ    SI, R8
	ADDQ    DI, R9
	MOVQ    mean+72(FP), CX
	VMOVUPD (CX)(R12*1), Y12
	VMOVUPD (CX)(R13*1), Y13
	MOVQ    invStd+80(FP), CX
	VMOVUPD (CX)(R12*1), Y14
	VMOVUPD (CX)(R13*1), Y15
	VXORPD  Y8, Y8, Y8
	VXORPD  Y9, Y9, Y9
	VXORPD  Y10, Y10, Y10
	VXORPD  Y11, Y11, Y11

gsSample:
	MOVQ AX, CX
	SHRQ $1, CX

gsPair:
	TESTQ    CX, CX
	JEQ      gsOdd
	BN_COLS2(SI, Y2, Y3)
	BN_COLS2(R8, Y4, Y5)
	VSUBPD   Y12, Y2, Y2
	VSUBPD   Y12, Y3, Y3
	VMULPD   Y14, Y2, Y2
	VMULPD   Y14, Y3, Y3
	VADDPD   Y4, Y8, Y8
	VMULPD   Y2, Y4, Y2
	VADDPD   Y2, Y10, Y10
	VADDPD   Y5, Y8, Y8
	VMULPD   Y3, Y5, Y3
	VADDPD   Y3, Y10, Y10
	BN_COLS2(DI, Y2, Y3)
	BN_COLS2(R9, Y4, Y5)
	VSUBPD   Y13, Y2, Y2
	VSUBPD   Y13, Y3, Y3
	VMULPD   Y15, Y2, Y2
	VMULPD   Y15, Y3, Y3
	VADDPD   Y4, Y9, Y9
	VMULPD   Y2, Y4, Y2
	VADDPD   Y2, Y11, Y11
	VADDPD   Y5, Y9, Y9
	VMULPD   Y3, Y5, Y3
	VADDPD   Y3, Y11, Y11
	ADDQ     $16, SI
	ADDQ     $16, DI
	ADDQ     $16, R8
	ADDQ     $16, R9
	DECQ     CX
	JMP      gsPair

gsOdd:
	TESTQ   $1, AX
	JEQ     gsNext
	BN_COL1(SI, Y2)
	BN_COL1(R8, Y4)
	VSUBPD  Y12, Y2, Y2
	VMULPD  Y14, Y2, Y2
	VADDPD  Y4, Y8, Y8
	VMULPD  Y2, Y4, Y2
	VADDPD  Y2, Y10, Y10
	BN_COL1(DI, Y3)
	BN_COL1(R9, Y5)
	VSUBPD  Y13, Y3, Y3
	VMULPD  Y15, Y3, Y3
	VADDPD  Y5, Y9, Y9
	VMULPD  Y3, Y5, Y3
	VADDPD  Y3, Y11, Y11
	ADDQ    $8, SI
	ADDQ    $8, DI
	ADDQ    $8, R8
	ADDQ    $8, R9

gsNext:
	ADDQ DX, SI
	ADDQ DX, DI
	ADDQ DX, R8
	ADDQ DX, R9
	DECQ BX
	JNZ  gsSample
	MOVQ sumDy+0(FP), CX
	VMOVUPD Y8, (CX)(R12*1)
	VMOVUPD Y9, (CX)(R13*1)
	MOVQ sumDyXhat+8(FP), CX
	VMOVUPD Y10, (CX)(R12*1)
	VMOVUPD Y11, (CX)(R13*1)
	VZEROUPPER
	RET
