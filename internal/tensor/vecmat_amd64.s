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
