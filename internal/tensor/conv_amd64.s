// AVX2 body of the direct convolution (conv.go): see convRun and convPass
// for the operands and the pass list, and convPassesGo for the loops.
// Every lane runs its element's scalar sequence: a VMULPD with the naive
// nest's first factor first, then a VADDPD onto the accumulator, never FMA.

#include "textflag.h"

// convRun field offsets (asserted in conv_amd64.go).
#define RUN_B 0
#define RUN_V 24
#define RUN_INIT 48
#define RUN_R 72
#define RUN_PASSES 96
#define RUN_NPASS 104
#define RUN_OUTER 120
#define RUN_BSTEP 128
#define RUN_VSTEP 136
#define RUN_RSTEP 144
#define RUN_LANES 152
#define RUN_WIDTH 160
#define RUN_KIND 168

// convPass field offsets and size.
#define PASS_IN0 0
#define PASS_IN1 8
#define PASS_IN2 16
#define PASS_OUT 24
#define PASS_V 48
#define PASS_N1 56
#define PASS_N2 64
#define PASS_BROW 72
#define PASS_VROW 80
#define PASS_BOUT 88
#define PASS_VOUT 96
#define PASS_NP 104
#define PASS_SIZE 112

// Register plan of the term loops:
//   AX — the convRun, BX — the pass
//   SI — broadcast cursor (position 0), R9, R10 — positions 1 and 2 from it
//   DI — lane cursor, R8 — broadcast step, DX — lane step (bytes)
//   R11, R12, R13 — outer, row and inner counters, CX — scratch
//   Y0..Y5 — accumulators: width 12 holds position p's three groups in
//   Y(3p)..Y(3p+2), width 8 position p's two groups in Y(2p), Y(2p+1)
//   Y14 — −0.0 in every lane, the product of a skipped term

// Width 12, broadcast first: two positions, three groups.
#define TAP_B12 \
	VBROADCASTSD (SI), Y6;        \
	VBROADCASTSD (SI)(R9*1), Y7;  \
	VMULPD       (DI), Y6, Y8;    \
	VMULPD       (DI), Y7, Y9;    \
	VMULPD       32(DI), Y6, Y10; \
	VMULPD       32(DI), Y7, Y11; \
	VMULPD       64(DI), Y6, Y12; \
	VMULPD       64(DI), Y7, Y13; \
	VADDPD       Y8, Y0, Y0;      \
	VADDPD       Y9, Y3, Y3;      \
	VADDPD       Y10, Y1, Y1;     \
	VADDPD       Y11, Y4, Y4;     \
	VADDPD       Y12, Y2, Y2;     \
	VADDPD       Y13, Y5, Y5

// Width 8, broadcast first: three positions, two groups.
#define TAP_B8 \
	VBROADCASTSD (SI), Y6;         \
	VBROADCASTSD (SI)(R9*1), Y7;   \
	VBROADCASTSD (SI)(R10*1), Y8;  \
	VMULPD       (DI), Y6, Y9;     \
	VMULPD       (DI), Y7, Y10;    \
	VMULPD       (DI), Y8, Y11;    \
	VMULPD       32(DI), Y6, Y12;  \
	VMULPD       32(DI), Y7, Y13;  \
	VMULPD       32(DI), Y8, Y15;  \
	VADDPD       Y9, Y0, Y0;       \
	VADDPD       Y10, Y2, Y2;      \
	VADDPD       Y11, Y4, Y4;      \
	VADDPD       Y12, Y1, Y1;      \
	VADDPD       Y13, Y3, Y3;      \
	VADDPD       Y15, Y5, Y5

// The broadcast-first terms of a pass holding fewer positions (PASS_NP):
// one position of width 12, one or two of width 8, the same accumulators
// as the full terms above.
#define TAP_B12P1 \
	VBROADCASTSD (SI), Y6;        \
	VMULPD       (DI), Y6, Y8;    \
	VMULPD       32(DI), Y6, Y9;  \
	VMULPD       64(DI), Y6, Y10; \
	VADDPD       Y8, Y0, Y0;      \
	VADDPD       Y9, Y1, Y1;      \
	VADDPD       Y10, Y2, Y2

#define TAP_B8P1 \
	VBROADCASTSD (SI), Y6;        \
	VMULPD       (DI), Y6, Y9;    \
	VMULPD       32(DI), Y6, Y12; \
	VADDPD       Y9, Y0, Y0;      \
	VADDPD       Y12, Y1, Y1

#define TAP_B8P2 \
	VBROADCASTSD (SI), Y6;        \
	VBROADCASTSD (SI)(R9*1), Y7;  \
	VMULPD       (DI), Y6, Y9;    \
	VMULPD       (DI), Y7, Y10;   \
	VMULPD       32(DI), Y6, Y12; \
	VMULPD       32(DI), Y7, Y13; \
	VADDPD       Y9, Y0, Y0;      \
	VADDPD       Y10, Y2, Y2;     \
	VADDPD       Y12, Y1, Y1;     \
	VADDPD       Y13, Y3, Y3

// Width 12, broadcast first, a zero broadcast (dx's g) adds −0.0.
#define TAP_BZ12 \
	VBROADCASTSD (SI), Y6;                \
	VBROADCASTSD (SI)(R9*1), Y7;          \
	VCMPPD       $4, Y14, Y6, Y8;         \
	VCMPPD       $4, Y14, Y7, Y9;         \
	VMULPD       (DI), Y6, Y10;           \
	VMULPD       (DI), Y7, Y11;           \
	VBLENDVPD    Y8, Y10, Y14, Y10;       \
	VBLENDVPD    Y9, Y11, Y14, Y11;       \
	VADDPD       Y10, Y0, Y0;             \
	VADDPD       Y11, Y3, Y3;             \
	VMULPD       32(DI), Y6, Y12;         \
	VMULPD       32(DI), Y7, Y13;         \
	VBLENDVPD    Y8, Y12, Y14, Y12;       \
	VBLENDVPD    Y9, Y13, Y14, Y13;       \
	VADDPD       Y12, Y1, Y1;             \
	VADDPD       Y13, Y4, Y4;             \
	VMULPD       64(DI), Y6, Y10;         \
	VMULPD       64(DI), Y7, Y11;         \
	VBLENDVPD    Y8, Y10, Y14, Y10;       \
	VBLENDVPD    Y9, Y11, Y14, Y11;       \
	VADDPD       Y10, Y2, Y2;             \
	VADDPD       Y11, Y5, Y5

// Width 8, broadcast first, a zero broadcast adds −0.0.
#define TAP_BZ8 \
	VBROADCASTSD (SI), Y6;          \
	VBROADCASTSD (SI)(R9*1), Y7;    \
	VBROADCASTSD (SI)(R10*1), Y8;   \
	VCMPPD       $4, Y14, Y6, Y9;   \
	VCMPPD       $4, Y14, Y7, Y10;  \
	VCMPPD       $4, Y14, Y8, Y11;  \
	VMULPD       (DI), Y6, Y12;     \
	VMULPD       (DI), Y7, Y13;     \
	VMULPD       (DI), Y8, Y15;     \
	VBLENDVPD    Y9, Y12, Y14, Y12; \
	VBLENDVPD    Y10, Y13, Y14, Y13; \
	VBLENDVPD    Y11, Y15, Y14, Y15; \
	VADDPD       Y12, Y0, Y0;       \
	VADDPD       Y13, Y2, Y2;       \
	VADDPD       Y15, Y4, Y4;       \
	VMULPD       32(DI), Y6, Y12;   \
	VMULPD       32(DI), Y7, Y13;   \
	VMULPD       32(DI), Y8, Y15;   \
	VBLENDVPD    Y9, Y12, Y14, Y12; \
	VBLENDVPD    Y10, Y13, Y14, Y13; \
	VBLENDVPD    Y11, Y15, Y14, Y15; \
	VADDPD       Y12, Y1, Y1;       \
	VADDPD       Y13, Y3, Y3;       \
	VADDPD       Y15, Y5, Y5

// Width 12, lanes first (dw's g·x).
#define TAP_V12 \
	VBROADCASTSD (SI), Y6;       \
	VBROADCASTSD (SI)(R9*1), Y7; \
	VMOVUPD      (DI), Y8;       \
	VMOVUPD      32(DI), Y9;     \
	VMOVUPD      64(DI), Y10;    \
	VMULPD       Y6, Y8, Y11;    \
	VMULPD       Y7, Y8, Y12;    \
	VADDPD       Y11, Y0, Y0;    \
	VADDPD       Y12, Y3, Y3;    \
	VMULPD       Y6, Y9, Y11;    \
	VMULPD       Y7, Y9, Y12;    \
	VADDPD       Y11, Y1, Y1;    \
	VADDPD       Y12, Y4, Y4;    \
	VMULPD       Y6, Y10, Y11;   \
	VMULPD       Y7, Y10, Y12;   \
	VADDPD       Y11, Y2, Y2;    \
	VADDPD       Y12, Y5, Y5

// Width 8, lanes first.
#define TAP_V8 \
	VBROADCASTSD (SI), Y6;        \
	VBROADCASTSD (SI)(R9*1), Y7;  \
	VBROADCASTSD (SI)(R10*1), Y8; \
	VMOVUPD      (DI), Y9;        \
	VMOVUPD      32(DI), Y10;     \
	VMULPD       Y6, Y9, Y11;     \
	VMULPD       Y7, Y9, Y12;     \
	VMULPD       Y8, Y9, Y13;     \
	VADDPD       Y11, Y0, Y0;     \
	VADDPD       Y12, Y2, Y2;     \
	VADDPD       Y13, Y4, Y4;     \
	VMULPD       Y6, Y10, Y11;    \
	VMULPD       Y7, Y10, Y12;    \
	VMULPD       Y8, Y10, Y13;    \
	VADDPD       Y11, Y1, Y1;     \
	VADDPD       Y12, Y3, Y3;     \
	VADDPD       Y13, Y5, Y5

// Width 12, lanes first, a zero lane (dw's g) adds −0.0.
#define TAP_VZ12 \
	VBROADCASTSD (SI), Y6;             \
	VBROADCASTSD (SI)(R9*1), Y7;       \
	VMOVUPD      (DI), Y8;             \
	VMOVUPD      32(DI), Y9;           \
	VMOVUPD      64(DI), Y10;          \
	VCMPPD       $4, Y14, Y8, Y11;     \
	VCMPPD       $4, Y14, Y9, Y12;     \
	VCMPPD       $4, Y14, Y10, Y13;    \
	VMULPD       Y6, Y8, Y15;          \
	VBLENDVPD    Y11, Y15, Y14, Y15;   \
	VADDPD       Y15, Y0, Y0;          \
	VMULPD       Y7, Y8, Y15;          \
	VBLENDVPD    Y11, Y15, Y14, Y15;   \
	VADDPD       Y15, Y3, Y3;          \
	VMULPD       Y6, Y9, Y15;          \
	VBLENDVPD    Y12, Y15, Y14, Y15;   \
	VADDPD       Y15, Y1, Y1;          \
	VMULPD       Y7, Y9, Y15;          \
	VBLENDVPD    Y12, Y15, Y14, Y15;   \
	VADDPD       Y15, Y4, Y4;          \
	VMULPD       Y6, Y10, Y15;         \
	VBLENDVPD    Y13, Y15, Y14, Y15;   \
	VADDPD       Y15, Y2, Y2;          \
	VMULPD       Y7, Y10, Y15;         \
	VBLENDVPD    Y13, Y15, Y14, Y15;   \
	VADDPD       Y15, Y5, Y5

// Width 8, lanes first, a zero lane adds −0.0.
#define TAP_VZ8 \
	VBROADCASTSD (SI), Y6;           \
	VBROADCASTSD (SI)(R9*1), Y7;     \
	VBROADCASTSD (SI)(R10*1), Y8;    \
	VMOVUPD      (DI), Y9;           \
	VMOVUPD      32(DI), Y10;        \
	VCMPPD       $4, Y14, Y9, Y11;   \
	VCMPPD       $4, Y14, Y10, Y12;  \
	VMULPD       Y6, Y9, Y13;        \
	VMULPD       Y7, Y9, Y15;        \
	VBLENDVPD    Y11, Y13, Y14, Y13; \
	VBLENDVPD    Y11, Y15, Y14, Y15; \
	VADDPD       Y13, Y0, Y0;        \
	VADDPD       Y15, Y2, Y2;        \
	VMULPD       Y8, Y9, Y13;        \
	VMULPD       Y6, Y10, Y15;       \
	VBLENDVPD    Y11, Y13, Y14, Y13; \
	VBLENDVPD    Y12, Y15, Y14, Y15; \
	VADDPD       Y13, Y4, Y4;        \
	VADDPD       Y15, Y1, Y1;        \
	VMULPD       Y7, Y10, Y13;       \
	VMULPD       Y8, Y10, Y15;       \
	VBLENDVPD    Y12, Y13, Y14, Y13; \
	VBLENDVPD    Y12, Y15, Y14, Y15; \
	VADDPD       Y13, Y3, Y3;        \
	VADDPD       Y15, Y5, Y5

// NEST runs a pass's terms, outer × n1 × n2, with TAP as the term, then
// jumps to store.
#define NEST(TAP, outer, row, col) \
outer:                                 \
	MOVQ PASS_N1(BX), R12;             \
row:                                   \
	MOVQ PASS_N2(BX), R13;             \
col:                                   \
	TAP;                               \
	ADDQ R8, SI;                       \
	ADDQ DX, DI;                       \
	DECQ R13;                          \
	JNZ  col;                          \
	MOVQ PASS_BROW(BX), CX;            \
	LEAQ (SI)(CX*8), SI;               \
	MOVQ PASS_VROW(BX), CX;            \
	LEAQ (DI)(CX*8), DI;               \
	DECQ R12;                          \
	JNZ  row;                          \
	MOVQ PASS_BOUT(BX), CX;            \
	LEAQ (SI)(CX*8), SI;               \
	MOVQ PASS_VOUT(BX), CX;            \
	LEAQ (DI)(CX*8), DI;               \
	DECQ R11;                          \
	JNZ  outer;                        \
	JMP  store

// STORE4 stores the lanes of one group, Y (X its low half), at DI, R8
// bytes apart, counting R13 down, and jumps to done when it reaches 0.
// Lanes 2 and 3 go through X15.
#define STORE4(Y, X, done) \
	VMOVSD       X, (DI);        \
	DECQ         R13;            \
	JZ           done;           \
	ADDQ         R8, DI;         \
	VMOVHPD      X, (DI);        \
	DECQ         R13;            \
	JZ           done;           \
	ADDQ         R8, DI;         \
	VEXTRACTF128 $1, Y, X15;     \
	VMOVSD       X15, (DI);      \
	DECQ         R13;            \
	JZ           done;           \
	ADDQ         R8, DI;         \
	VMOVHPD      X15, (DI);      \
	DECQ         R13;            \
	JZ           done;           \
	ADDQ         R8, DI

// POS points DI at position i's result and R13 at the lane count.
#define POS(i) \
	MOVQ PASS_OUT+8*i(BX), CX; \
	LEAQ (DX)(CX*8), DI;       \
	MOVQ RUN_LANES(AX), R13

// func convPassesAVX2(r *convRun)
//
// Per pass: start the accumulators at the initial lanes, run the terms
// unless the pass has none, and store the first r.lanes lanes of each of
// its np distinct positions from the accumulators to its result, r.rStep
// apart. A broadcast-first pass (convBcastFirst) with fewer distinct
// positions than its width runs the terms of those alone; every other
// pass runs them for all of its positions, repeats included.
TEXT ·convPassesAVX2(SB), NOSPLIT, $8-8
	MOVQ         r+0(FP), AX
	MOVQ         RUN_PASSES(AX), BX
	MOVQ         RUN_NPASS(AX), CX
	MOVQ         CX, npass-8(SP)
	MOVQ         $0x8000000000000000, CX
	MOVQ         CX, X14
	VBROADCASTSD X14, Y14

pass:
	MOVQ RUN_B(AX), SI
	MOVQ PASS_IN0(BX), CX
	LEAQ (SI)(CX*8), SI
	MOVQ PASS_IN1(BX), R9
	SUBQ CX, R9
	SHLQ $3, R9
	MOVQ PASS_IN2(BX), R10
	SUBQ CX, R10
	SHLQ $3, R10
	MOVQ RUN_V(AX), DI
	MOVQ PASS_V(BX), CX
	LEAQ (DI)(CX*8), DI
	MOVQ RUN_BSTEP(AX), R8
	SHLQ $3, R8
	MOVQ RUN_VSTEP(AX), DX
	SHLQ $3, DX
	MOVQ RUN_OUTER(AX), R11
	MOVQ RUN_INIT(AX), CX
	CMPQ RUN_WIDTH(AX), $8
	JEQ  init8
	VMOVUPD (CX), Y0
	VMOVUPD 32(CX), Y1
	VMOVUPD 64(CX), Y2
	VMOVAPD Y0, Y3
	VMOVAPD Y1, Y4
	VMOVAPD Y2, Y5
	JMP     terms

init8:
	VMOVUPD (CX), Y0
	VMOVUPD 32(CX), Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y1, Y3
	VMOVAPD Y0, Y4
	VMOVAPD Y1, Y5

terms:
	CMPQ PASS_N1(BX), $0
	JEQ  store
	CMPQ PASS_N2(BX), $0
	JEQ  store
	MOVQ RUN_KIND(AX), CX
	CMPQ RUN_WIDTH(AX), $8
	JEQ  kind8
	CMPQ CX, $1
	JLT  part12
	JEQ  bz12
	CMPQ CX, $2
	JEQ  v12
	JMP  vz12

part12:
	CMPQ PASS_NP(BX), $1
	JEQ  b12p1
	JMP  b12

kind8:
	CMPQ CX, $1
	JLT  part8
	JEQ  bz8
	CMPQ CX, $2
	JEQ  v8
	JMP  vz8

part8:
	MOVQ PASS_NP(BX), CX
	CMPQ CX, $2
	JLT  b8p1
	JEQ  b8p2
	JMP  b8

	NEST(TAP_B12, b12, b12row, b12col)
	NEST(TAP_BZ12, bz12, bz12row, bz12col)
	NEST(TAP_V12, v12, v12row, v12col)
	NEST(TAP_VZ12, vz12, vz12row, vz12col)
	NEST(TAP_B8, b8, b8row, b8col)
	NEST(TAP_BZ8, bz8, bz8row, bz8col)
	NEST(TAP_V8, v8, v8row, v8col)
	NEST(TAP_VZ8, vz8, vz8row, vz8col)
	NEST(TAP_B12P1, b12p1, b12p1row, b12p1col)
	NEST(TAP_B8P1, b8p1, b8p1row, b8p1col)
	NEST(TAP_B8P2, b8p2, b8p2row, b8p2col)

store:
	MOVQ RUN_R(AX), DX
	MOVQ RUN_RSTEP(AX), R8
	SHLQ $3, R8
	CMPQ RUN_WIDTH(AX), $8
	JEQ  store8
	POS(0)
	STORE4(Y0, X0, store12p1)
	STORE4(Y1, X1, store12p1)
	STORE4(Y2, X2, store12p1)

store12p1:
	CMPQ PASS_NP(BX), $1
	JEQ  next
	POS(1)
	STORE4(Y3, X3, next)
	STORE4(Y4, X4, next)
	STORE4(Y5, X5, next)

store8:
	POS(0)
	STORE4(Y0, X0, store8p1)
	STORE4(Y1, X1, store8p1)

store8p1:
	CMPQ PASS_NP(BX), $1
	JEQ  next
	POS(1)
	STORE4(Y2, X2, store8p2)
	STORE4(Y3, X3, store8p2)

store8p2:
	CMPQ PASS_NP(BX), $2
	JEQ  next
	POS(2)
	STORE4(Y4, X4, next)
	STORE4(Y5, X5, next)

next:
	ADDQ $PASS_SIZE, BX
	DECQ npass-8(SP)
	JNZ  pass
	VZEROUPPER
	RET
