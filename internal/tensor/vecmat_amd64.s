// AVX2 vector-matrix row kernel. See vecmat.go for the contract: every
// output column is summed in ascending term order from +0 with a separate
// VMULPD and VADDPD per term (never FMA), one column per lane.

#include "textflag.h"

// func vecMatAVX2(dst *float64, n int, a *float64, as int, x *float64, xs, terms int)
//
// Register plan:
//   DI — dst cursor, CX — columns left, DX — x cursor (column offset applied)
//   SI — a, R8 — a stride in bytes, R9 — x stride in bytes, R10 — terms
//   AX, BX, R11 — per-pass a cursor, x cursor, term counter
//   Y0..Y2 — accumulators, Y3 — broadcast a[t], Y4 — product temporary
TEXT ·vecMatAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ a+16(FP), SI
	MOVQ as+24(FP), R8
	SHLQ $3, R8
	MOVQ x+32(FP), DX
	MOVQ xs+40(FP), R9
	SHLQ $3, R9
	MOVQ terms+48(FP), R10

cols12:
	CMPQ CX, $12
	JLT  cols8
	MOVQ   SI, AX
	MOVQ   DX, BX
	MOVQ   R10, R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
loop12:
	VBROADCASTSD (AX), Y3
	VMULPD       (BX), Y3, Y4
	VADDPD       Y4, Y0, Y0
	VMULPD       32(BX), Y3, Y4
	VADDPD       Y4, Y1, Y1
	VMULPD       64(BX), Y3, Y4
	VADDPD       Y4, Y2, Y2
	ADDQ         R8, AX
	ADDQ         R9, BX
	DECQ         R11
	JNZ          loop12
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	ADDQ    $96, DI
	ADDQ    $96, DX
	SUBQ    $12, CX
	JMP     cols12

cols8:
	CMPQ CX, $8
	JLT  cols4
	MOVQ   SI, AX
	MOVQ   DX, BX
	MOVQ   R10, R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
loop8:
	VBROADCASTSD (AX), Y3
	VMULPD       (BX), Y3, Y4
	VADDPD       Y4, Y0, Y0
	VMULPD       32(BX), Y3, Y4
	VADDPD       Y4, Y1, Y1
	ADDQ         R8, AX
	ADDQ         R9, BX
	DECQ         R11
	JNZ          loop8
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, DX
	SUBQ    $8, CX

cols4:
	CMPQ CX, $4
	JLT  cols1
	MOVQ   SI, AX
	MOVQ   DX, BX
	MOVQ   R10, R11
	VXORPD Y0, Y0, Y0
loop4:
	VBROADCASTSD (AX), Y3
	VMULPD       (BX), Y3, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         R8, AX
	ADDQ         R9, BX
	DECQ         R11
	JNZ          loop4
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $4, CX

cols1:
	TESTQ CX, CX
	JZ    done
	MOVQ   SI, AX
	MOVQ   DX, BX
	MOVQ   R10, R11
	VXORPD X0, X0, X0
loop1:
	VMOVSD (AX), X3
	VMULSD (BX), X3, X4
	VADDSD X4, X0, X0
	ADDQ   R8, AX
	ADDQ   R9, BX
	DECQ   R11
	JNZ    loop1
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, DX
	DECQ   CX
	JMP    cols1

done:
	VZEROUPPER
	RET

// func addVecAVX2(dst, src *float64, n int)
//
// dst[i] += src[i], sixteen then four lanes to a pass, then one element at
// a time: each lane is the scalar add of its own element.
TEXT ·addVecAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

add16:
	CMPQ CX, $16
	JLT  add4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VADDPD  (SI), Y0, Y0
	VADDPD  32(SI), Y1, Y1
	VADDPD  64(SI), Y2, Y2
	VADDPD  96(SI), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     add16

add4:
	CMPQ CX, $4
	JLT  add1
	VMOVUPD (DI), Y0
	VADDPD  (SI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     add4

add1:
	TESTQ CX, CX
	JZ    addDone
	VMOVSD (DI), X0
	VADDSD (SI), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   CX
	JMP    add1

addDone:
	VZEROUPPER
	RET

// func scaleVecAVX2(dst, src *float64, n int, s float64)
//
// dst[i] = s·src[i], sixteen then four lanes to a pass, then one element at
// a time: each lane is the scalar multiply of its own element.
TEXT ·scaleVecAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD s+24(FP), Y4

scale16:
	CMPQ CX, $16
	JLT  scale4
	VMULPD  (SI), Y4, Y0
	VMULPD  32(SI), Y4, Y1
	VMULPD  64(SI), Y4, Y2
	VMULPD  96(SI), Y4, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     scale16

scale4:
	CMPQ CX, $4
	JLT  scale1
	VMULPD  (SI), Y4, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     scale4

scale1:
	TESTQ CX, CX
	JZ    scaleDone
	VMULSD (SI), X4, X0
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   CX
	JMP    scale1

scaleDone:
	VZEROUPPER
	RET

// func mulAddVecAVX2(dst, a, b *float64, n int)
//
// dst[i] += a[i]·b[i], sixteen then four lanes to a pass while at least
// four remain (the caller runs the rest): a VMULPD rounds a·b, then a
// VADDPD adds it to dst, the scalar order with the scalar operands first.
TEXT ·mulAddVecAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX

muladd16:
	CMPQ    CX, $16
	JLT     muladd4
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VMULPD  (DX), Y0, Y0
	VMULPD  32(DX), Y1, Y1
	VMULPD  64(DX), Y2, Y2
	VMULPD  96(DX), Y3, Y3
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
	VMOVUPD 64(DI), Y6
	VMOVUPD 96(DI), Y7
	VADDPD  Y0, Y4, Y4
	VADDPD  Y1, Y5, Y5
	VADDPD  Y2, Y6, Y6
	VADDPD  Y3, Y7, Y7
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	ADDQ    $128, DX
	SUBQ    $16, CX
	JMP     muladd16

muladd4:
	CMPQ    CX, $4
	JLT     muladdDone
	VMOVUPD (SI), Y0
	VMULPD  (DX), Y0, Y0
	VMOVUPD (DI), Y4
	VADDPD  Y0, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     muladd4

muladdDone:
	VZEROUPPER
	RET

// func reluVecAVX2(dst, src *float64, n int)
//
// dst[i] = src[i] & (0 < src[i] ? all ones : 0), sixteen then four lanes
// to a pass while at least four remain. VCMPPD predicate 0x11 is LT_OQ:
// false for NaN, so NaN, −0 and negatives all become +0.
TEXT ·reluVecAVX2(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPD Y15, Y15, Y15

relu16:
	CMPQ    CX, $16
	JLT     relu4
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VCMPPD  $0x11, Y0, Y15, Y4
	VCMPPD  $0x11, Y1, Y15, Y5
	VCMPPD  $0x11, Y2, Y15, Y6
	VCMPPD  $0x11, Y3, Y15, Y7
	VANDPD  Y0, Y4, Y0
	VANDPD  Y1, Y5, Y1
	VANDPD  Y2, Y6, Y2
	VANDPD  Y3, Y7, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     relu16

relu4:
	CMPQ    CX, $4
	JLT     reluDone
	VMOVUPD (SI), Y0
	VCMPPD  $0x11, Y0, Y15, Y4
	VANDPD  Y0, Y4, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     relu4

reluDone:
	VZEROUPPER
	RET

// func reluBackVecAVX2(grad, og, x *float64, n int)
//
// g[i] = 0 < x[i] ? g[i] + og[i] : g[i], sixteen then four lanes to a pass
// while at least four remain: the VADDPD runs on every lane and VBLENDVPD
// keeps it only where the LT_OQ mask is set, so a masked lane is stored
// back with the bits it was loaded with.
TEXT ·reluBackVecAVX2(SB), NOSPLIT, $0-32
	MOVQ   grad+0(FP), DI
	MOVQ   og+8(FP), SI
	MOVQ   x+16(FP), DX
	MOVQ   n+24(FP), CX
	VXORPD Y15, Y15, Y15

back16:
	CMPQ      CX, $16
	JLT       back4
	VMOVUPD   (DI), Y0
	VMOVUPD   32(DI), Y1
	VMOVUPD   64(DI), Y2
	VMOVUPD   96(DI), Y3
	VADDPD    (SI), Y0, Y4
	VADDPD    32(SI), Y1, Y5
	VADDPD    64(SI), Y2, Y6
	VADDPD    96(SI), Y3, Y7
	VCMPPD    $0x11, (DX), Y15, Y8
	VCMPPD    $0x11, 32(DX), Y15, Y9
	VCMPPD    $0x11, 64(DX), Y15, Y10
	VCMPPD    $0x11, 96(DX), Y15, Y11
	VBLENDVPD Y8, Y4, Y0, Y0
	VBLENDVPD Y9, Y5, Y1, Y1
	VBLENDVPD Y10, Y6, Y2, Y2
	VBLENDVPD Y11, Y7, Y3, Y3
	VMOVUPD   Y0, (DI)
	VMOVUPD   Y1, 32(DI)
	VMOVUPD   Y2, 64(DI)
	VMOVUPD   Y3, 96(DI)
	ADDQ      $128, DI
	ADDQ      $128, SI
	ADDQ      $128, DX
	SUBQ      $16, CX
	JMP       back16

back4:
	CMPQ      CX, $4
	JLT       backDone
	VMOVUPD   (DI), Y0
	VADDPD    (SI), Y0, Y4
	VCMPPD    $0x11, (DX), Y15, Y8
	VBLENDVPD Y8, Y4, Y0, Y0
	VMOVUPD   Y0, (DI)
	ADDQ      $32, DI
	ADDQ      $32, SI
	ADDQ      $32, DX
	SUBQ      $4, CX
	JMP       back4

backDone:
	VZEROUPPER
	RET

// func adamStepAVX2(val, grad, m, v *float64, n int, c *AdamCoef)
//
// Four elements to a pass while at least four remain (the caller runs the
// rest through the scalar loop). Each lane runs AdamUpdate's scalar
// sequence with one correctly rounded instruction per operation and no
// FMA. Register plan:
//   DI — val, SI — grad, R8 — m, R9 — v, CX — elements left
//   Y7..Y15 — the nine coefficients, broadcast in AdamCoef's field order
//   Y0 — grad then g, Y1 — val, Y2 — m then the step, Y3 — v then the
//   denominator, Y4 — product temporary
TEXT ·adamStepAVX2(SB), NOSPLIT, $0-48
	MOVQ         val+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), R8
	MOVQ         v+24(FP), R9
	MOVQ         n+32(FP), CX
	MOVQ         c+40(FP), AX
	VBROADCASTSD 0(AX), Y7   // WeightDecay
	VBROADCASTSD 8(AX), Y8   // Beta1
	VBROADCASTSD 16(AX), Y9  // OneMinusBeta1
	VBROADCASTSD 24(AX), Y10 // Beta2
	VBROADCASTSD 32(AX), Y11 // OneMinusBeta2
	VBROADCASTSD 40(AX), Y12 // BiasCorr1
	VBROADCASTSD 48(AX), Y13 // BiasCorr2
	VBROADCASTSD 56(AX), Y14 // LR
	VBROADCASTSD 64(AX), Y15 // Eps

adam4:
	CMPQ CX, $4
	JLT  adamDone
	VMOVUPD (SI), Y0       // grad
	VMOVUPD (DI), Y1
	VMULPD  Y1, Y7, Y4     // wd·val
	VADDPD  Y4, Y0, Y0     // g
	VMULPD  (R8), Y8, Y2   // β1·m
	VMULPD  Y0, Y9, Y4     // (1−β1)·g
	VADDPD  Y4, Y2, Y2     // m
	VMOVUPD Y2, (R8)
	VMULPD  (R9), Y10, Y3  // β2·v
	VMULPD  Y0, Y11, Y4    // (1−β2)·g
	VMULPD  Y0, Y4, Y4     // ((1−β2)·g)·g
	VADDPD  Y4, Y3, Y3     // v
	VMOVUPD Y3, (R9)
	VDIVPD  Y12, Y2, Y2    // m/bc1
	VDIVPD  Y13, Y3, Y3    // v/bc2
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3    // sqrt(v/bc2) + eps
	VMULPD  Y2, Y14, Y2    // lr·(m/bc1)
	VDIVPD  Y3, Y2, Y2
	VSUBPD  Y2, Y1, Y1     // val − step
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	SUBQ    $4, CX
	JMP     adam4

adamDone:
	VZEROUPPER
	RET
