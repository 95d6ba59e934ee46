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
