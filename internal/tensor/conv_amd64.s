// AVX2 and AVX-512 bodies of the direct convolution (conv.go): see convRun
// and convPass for the operands and the pass list, and convPassesGo for the
// loops. Every lane runs its element's scalar sequence: a VMULPD with the
// naive nest's first factor first, then a VADDPD onto the accumulator,
// never FMA.

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
#define PASS_IN3 24
#define PASS_OUT 32
#define PASS_V 64
#define PASS_N1 72
#define PASS_N2 80
#define PASS_BROW 88
#define PASS_VROW 96
#define PASS_BOUT 104
#define PASS_VOUT 112
#define PASS_NP 120
#define PASS_SIZE 128

// Register plan of the term loops:
//   AX — the convRun, BX — the pass
//   SI — broadcast cursor (position 0), R9, R10, R14 — positions 1, 2
//   and 3 from it
//   DI — lane cursor, R8 — broadcast step, DX — lane step (bytes)
//   R11, R12, R13 — outer, row and inner counters, CX — scratch
//   Y0..Y7 — YMM accumulators: width 12 holds position p's three groups
//   in Y(3p)..Y(3p+2), width 8 position p's two groups in Y(2p), Y(2p+1)
//   Z0..Z3 — ZMM accumulators, position p's eight lanes in Zp
//   Y14 (Z14) — −0.0 in every lane: the product of a skipped YMM term,
//   and what a zero kind compares against
//   K1..K4 — the ZMM zero kinds' lanes to add, one mask a position

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

// Width 8, broadcast first: three positions, two groups (the nest of a
// short pass; a full pass holds four). It and its kinds below run the
// short passes that have no narrower nest (SHORT8).
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
// as the full terms above. The lanes-first nest of two positions of width
// 8 follows the four-position nests below.
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

// Width 8, four positions: broadcast first, a zero broadcast adds −0.0,
// lanes first, a zero lane adds −0.0.
#define TAP_B8P4 \
	VBROADCASTSD (SI), Y8;         \
	VBROADCASTSD (SI)(R9*1), Y9;   \
	VBROADCASTSD (SI)(R10*1), Y10; \
	VBROADCASTSD (SI)(R14*1), Y11; \
	VMULPD       (DI), Y8, Y12;    \
	VMULPD       (DI), Y9, Y13;    \
	VMULPD       (DI), Y10, Y15;   \
	VADDPD       Y12, Y0, Y0;      \
	VADDPD       Y13, Y2, Y2;      \
	VADDPD       Y15, Y4, Y4;      \
	VMULPD       (DI), Y11, Y12;   \
	VMULPD       32(DI), Y8, Y13;  \
	VMULPD       32(DI), Y9, Y15;  \
	VADDPD       Y12, Y6, Y6;      \
	VADDPD       Y13, Y1, Y1;      \
	VADDPD       Y15, Y3, Y3;      \
	VMULPD       32(DI), Y10, Y12; \
	VMULPD       32(DI), Y11, Y13; \
	VADDPD       Y12, Y5, Y5;      \
	VADDPD       Y13, Y7, Y7

// BZ8POS is one position of the zero-broadcast nests of width 8: its
// broadcast at addr, its groups in LO and HI.
#define BZ8POS(addr, LO, HI) \
	VBROADCASTSD addr, Y8;           \
	VCMPPD       $4, Y14, Y8, Y9;    \
	VMULPD       (DI), Y8, Y10;      \
	VMULPD       32(DI), Y8, Y11;    \
	VBLENDVPD    Y9, Y10, Y14, Y10;  \
	VBLENDVPD    Y9, Y11, Y14, Y11;  \
	VADDPD       Y10, LO, LO;        \
	VADDPD       Y11, HI, HI

#define TAP_BZ8P4 \
	BZ8POS((SI), Y0, Y1);        \
	BZ8POS((SI)(R9*1), Y2, Y3);  \
	BZ8POS((SI)(R10*1), Y4, Y5); \
	BZ8POS((SI)(R14*1), Y6, Y7)

// V8POS is one position of the lanes-first nests of width 8: the lanes
// are in Y8 and Y9 (V8LOAD), and BLEND is V8ALL, or V8KEEP, which puts
// −0.0 where the masks in Y10 and Y11 (VZ8LOAD) mark a zero lane.
#define V8POS(addr, LO, HI, BLEND) \
	VBROADCASTSD addr, Y12;    \
	VMULPD       Y12, Y8, Y13; \
	VMULPD       Y12, Y9, Y15; \
	BLEND;                     \
	VADDPD       Y13, LO, LO;  \
	VADDPD       Y15, HI, HI

#define V8ALL

#define V8KEEP \
	VBLENDVPD Y10, Y13, Y14, Y13; \
	VBLENDVPD Y11, Y15, Y14, Y15

#define V8LOAD \
	VMOVUPD (DI), Y8; \
	VMOVUPD 32(DI), Y9

#define VZ8LOAD \
	V8LOAD;                   \
	VCMPPD $4, Y14, Y8, Y10;  \
	VCMPPD $4, Y14, Y9, Y11

// Lanes first, two positions: the short pass of every tap of a dw over
// six channels (four and two a pass).
#define TAP_V8P2 \
	V8LOAD;                           \
	V8POS((SI), Y0, Y1, V8ALL);       \
	V8POS((SI)(R9*1), Y2, Y3, V8ALL)

#define TAP_V8P4 \
	V8LOAD;                            \
	V8POS((SI), Y0, Y1, V8ALL);        \
	V8POS((SI)(R9*1), Y2, Y3, V8ALL);  \
	V8POS((SI)(R10*1), Y4, Y5, V8ALL); \
	V8POS((SI)(R14*1), Y6, Y7, V8ALL)

#define TAP_VZ8P4 \
	VZ8LOAD;                            \
	V8POS((SI), Y0, Y1, V8KEEP);        \
	V8POS((SI)(R9*1), Y2, Y3, V8KEEP);  \
	V8POS((SI)(R10*1), Y4, Y5, V8KEEP); \
	V8POS((SI)(R14*1), Y6, Y7, V8KEEP)

// Width 8 on ZMM, four positions, the lanes loaded once into Z12.
// Broadcast first.
#define TAP_Z8B \
	VMOVUPD      (DI), Z12;         \
	VBROADCASTSD (SI), Z4;          \
	VBROADCASTSD (SI)(R9*1), Z5;    \
	VBROADCASTSD (SI)(R10*1), Z6;   \
	VBROADCASTSD (SI)(R14*1), Z7;   \
	VMULPD       Z12, Z4, Z8;       \
	VMULPD       Z12, Z5, Z9;       \
	VMULPD       Z12, Z6, Z10;      \
	VMULPD       Z12, Z7, Z11;      \
	VADDPD       Z8, Z0, Z0;        \
	VADDPD       Z9, Z1, Z1;        \
	VADDPD       Z10, Z2, Z2;       \
	VADDPD       Z11, Z3, Z3

// Broadcast first, a zero broadcast (dx's g) adds nothing: its position's
// mask is clear in every lane.
#define TAP_Z8BZ \
	VMOVUPD      (DI), Z12;         \
	VBROADCASTSD (SI), Z4;          \
	VBROADCASTSD (SI)(R9*1), Z5;    \
	VBROADCASTSD (SI)(R10*1), Z6;   \
	VBROADCASTSD (SI)(R14*1), Z7;   \
	VCMPPD       $4, Z14, Z4, K1;   \
	VCMPPD       $4, Z14, Z5, K2;   \
	VCMPPD       $4, Z14, Z6, K3;   \
	VCMPPD       $4, Z14, Z7, K4;   \
	VMULPD       Z12, Z4, Z8;       \
	VMULPD       Z12, Z5, Z9;       \
	VMULPD       Z12, Z6, Z10;      \
	VMULPD       Z12, Z7, Z11;      \
	VADDPD       Z8, Z0, K1, Z0;    \
	VADDPD       Z9, Z1, K2, Z1;    \
	VADDPD       Z10, Z2, K3, Z2;   \
	VADDPD       Z11, Z3, K4, Z3

// Lanes first (dw's g·x).
#define TAP_Z8V \
	VMOVUPD      (DI), Z12;         \
	VBROADCASTSD (SI), Z4;          \
	VBROADCASTSD (SI)(R9*1), Z5;    \
	VBROADCASTSD (SI)(R10*1), Z6;   \
	VBROADCASTSD (SI)(R14*1), Z7;   \
	VMULPD       Z4, Z12, Z8;       \
	VMULPD       Z5, Z12, Z9;       \
	VMULPD       Z6, Z12, Z10;      \
	VMULPD       Z7, Z12, Z11;      \
	VADDPD       Z8, Z0, Z0;        \
	VADDPD       Z9, Z1, Z1;        \
	VADDPD       Z10, Z2, Z2;       \
	VADDPD       Z11, Z3, Z3

// Lanes first, a zero lane (dw's g) adds nothing: one mask for the four
// positions.
#define TAP_Z8VZ \
	VMOVUPD      (DI), Z12;         \
	VCMPPD       $4, Z14, Z12, K1;  \
	VBROADCASTSD (SI), Z4;          \
	VBROADCASTSD (SI)(R9*1), Z5;    \
	VBROADCASTSD (SI)(R10*1), Z6;   \
	VBROADCASTSD (SI)(R14*1), Z7;   \
	VMULPD       Z4, Z12, Z8;       \
	VMULPD       Z5, Z12, Z9;       \
	VMULPD       Z6, Z12, Z10;      \
	VMULPD       Z7, Z12, Z11;      \
	VADDPD       Z8, Z0, K1, Z0;    \
	VADDPD       Z9, Z1, K1, Z1;    \
	VADDPD       Z10, Z2, K1, Z2;   \
	VADDPD       Z11, Z3, K1, Z3

// NEST runs a pass's terms, outer × n1 × n2, with TAP as the term, then
// jumps to done.
#define NEST(TAP, outer, row, col, done) \
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
	JMP  done

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

// SETUP loads the pass list and −0.0, the top of both bodies.
#define SETUP \
	MOVQ         r+0(FP), AX;                \
	MOVQ         RUN_PASSES(AX), BX;         \
	MOVQ         RUN_NPASS(AX), CX;          \
	MOVQ         CX, npass-8(SP);            \
	MOVQ         $0x8000000000000000, CX;    \
	MOVQ         CX, X14

// CURSORS points the term loop's registers at pass BX's first term and CX
// at the initial lanes.
#define CURSORS \
	MOVQ RUN_B(AX), SI;        \
	MOVQ PASS_IN0(BX), CX;     \
	LEAQ (SI)(CX*8), SI;       \
	MOVQ PASS_IN1(BX), R9;     \
	SUBQ CX, R9;               \
	SHLQ $3, R9;               \
	MOVQ PASS_IN2(BX), R10;    \
	SUBQ CX, R10;              \
	SHLQ $3, R10;              \
	MOVQ PASS_IN3(BX), R14;    \
	SUBQ CX, R14;              \
	SHLQ $3, R14;              \
	MOVQ RUN_V(AX), DI;        \
	MOVQ PASS_V(BX), CX;       \
	LEAQ (DI)(CX*8), DI;       \
	MOVQ RUN_BSTEP(AX), R8;    \
	SHLQ $3, R8;               \
	MOVQ RUN_VSTEP(AX), DX;    \
	SHLQ $3, DX;               \
	MOVQ RUN_OUTER(AX), R11;   \
	MOVQ RUN_INIT(AX), CX

// INIT8 starts the YMM accumulators of width 8 at the initial lanes (CX).
#define INIT8 \
	VMOVUPD (CX), Y0;  \
	VMOVUPD 32(CX), Y1; \
	VMOVAPD Y0, Y2;    \
	VMOVAPD Y1, Y3;    \
	VMOVAPD Y0, Y4;    \
	VMOVAPD Y1, Y5;    \
	VMOVAPD Y0, Y6;    \
	VMOVAPD Y1, Y7

// SKIP8 jumps to store8 when pass BX has no terms.
#define SKIP8 \
	CMPQ PASS_N1(BX), $0; \
	JEQ  store8;          \
	CMPQ PASS_N2(BX), $0; \
	JEQ  store8

// SHORT8 runs a width-8 pass of at most three distinct positions, kind in
// CX, on YMM: the broadcast-first kind on the nest of those positions
// alone, lanes first on the two-position nest when it has two, and every
// other pass on the three-position nest of its kind, the repeated
// positions' terms run again to the same bits and never stored.
#define SHORT8 \
	CMPQ CX, $1;                                    \
	JLT  b8short;                                   \
	JEQ  bz8;                                       \
	CMPQ CX, $2;                                    \
	JNE  vz8;                                       \
	CMPQ PASS_NP(BX), $2;                           \
	JEQ  v8p2;                                      \
	JMP  v8;                                        \
b8short:                                            \
	CMPQ PASS_NP(BX), $2;                           \
	JLT  b8p1;                                      \
	JEQ  b8p2;                                      \
	JMP  b8;                                        \
	NEST(TAP_B8, b8, b8row, b8col, store8);         \
	NEST(TAP_BZ8, bz8, bz8row, bz8col, store8);     \
	NEST(TAP_V8, v8, v8row, v8col, store8);         \
	NEST(TAP_VZ8, vz8, vz8row, vz8col, store8);     \
	NEST(TAP_B8P1, b8p1, b8p1row, b8p1col, store8); \
	NEST(TAP_B8P2, b8p2, b8p2row, b8p2col, store8); \
	NEST(TAP_V8P2, v8p2, v8p2row, v8p2col, store8)

// STORE8 stores the np distinct positions of a width-8 pass from the YMM
// accumulators, then jumps to next.
#define STORE8 \
store8:                               \
	MOVQ RUN_R(AX), DX;               \
	MOVQ RUN_RSTEP(AX), R8;           \
	SHLQ $3, R8;                      \
	POS(0);                           \
	STORE4(Y0, X0, store8p1);         \
	STORE4(Y1, X1, store8p1);         \
store8p1:                             \
	CMPQ PASS_NP(BX), $1;             \
	JEQ  next;                        \
	POS(1);                           \
	STORE4(Y2, X2, store8p2);         \
	STORE4(Y3, X3, store8p2);         \
store8p2:                             \
	CMPQ PASS_NP(BX), $2;             \
	JEQ  next;                        \
	POS(2);                           \
	STORE4(Y4, X4, store8p3);         \
	STORE4(Y5, X5, store8p3);         \
store8p3:                             \
	CMPQ PASS_NP(BX), $3;             \
	JEQ  next;                        \
	POS(3);                           \
	STORE4(Y6, X6, next);             \
	STORE4(Y7, X7, next);             \
	JMP  next

// func convPassesAVX2(r *convRun)
//
// Per pass: start the accumulators at the initial lanes, run the terms
// unless the pass has none, and store the first r.lanes lanes of each of
// its np distinct positions from the accumulators to its result, r.rStep
// apart. A full pass of width 8 runs on the four-position nests, a
// shorter one on a nest of three positions or fewer (SHORT8). A
// broadcast-first pass of width 12 with one distinct position runs on the
// one-position nest; every other pass of width 12 runs its terms for both
// positions, a repeat included.
TEXT ·convPassesAVX2(SB), NOSPLIT, $8-8
	SETUP
	VBROADCASTSD X14, Y14

pass:
	CURSORS
	CMPQ RUN_WIDTH(AX), $8
	JEQ  init8
	VMOVUPD (CX), Y0
	VMOVUPD 32(CX), Y1
	VMOVUPD 64(CX), Y2
	VMOVAPD Y0, Y3
	VMOVAPD Y1, Y4
	VMOVAPD Y2, Y5
	CMPQ    PASS_N1(BX), $0
	JEQ     store
	CMPQ    PASS_N2(BX), $0
	JEQ     store
	MOVQ    RUN_KIND(AX), CX
	CMPQ    CX, $1
	JLT     part12
	JEQ     bz12
	CMPQ    CX, $2
	JEQ     v12
	JMP     vz12

part12:
	CMPQ PASS_NP(BX), $1
	JEQ  b12p1
	JMP  b12

init8:
	INIT8
	SKIP8
	MOVQ RUN_KIND(AX), CX
	CMPQ PASS_NP(BX), $4
	JLT  short8
	CMPQ CX, $1
	JLT  b8p4
	JEQ  bz8p4
	CMPQ CX, $2
	JEQ  v8p4
	JMP  vz8p4

short8:
	SHORT8
	NEST(TAP_B8P4, b8p4, b8p4row, b8p4col, store8)
	NEST(TAP_BZ8P4, bz8p4, bz8p4row, bz8p4col, store8)
	NEST(TAP_V8P4, v8p4, v8p4row, v8p4col, store8)
	NEST(TAP_VZ8P4, vz8p4, vz8p4row, vz8p4col, store8)
	NEST(TAP_B12, b12, b12row, b12col, store)
	NEST(TAP_BZ12, bz12, bz12row, bz12col, store)
	NEST(TAP_V12, v12, v12row, v12col, store)
	NEST(TAP_VZ12, vz12, vz12row, vz12col, store)
	NEST(TAP_B12P1, b12p1, b12p1row, b12p1col, store)

	STORE8

store:
	MOVQ RUN_R(AX), DX
	MOVQ RUN_RSTEP(AX), R8
	SHLQ $3, R8
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

next:
	ADDQ $PASS_SIZE, BX
	DECQ npass-8(SP)
	JNZ  pass
	VZEROUPPER
	RET

// ZSTORE stores the lanes of position i from Zi: the low four from Yi,
// the high four through Y8.
#define ZSTORE(i, Y, X, Z, done) \
	POS(i);                       \
	STORE4(Y, X, done);           \
	VEXTRACTF64X4 $1, Z, Y8;      \
	STORE4(Y8, X8, done)

// func convPassesAVX512(r *convRun)
//
// convPassesAVX2 for runs of width 8 alone (r.width must be 8), with a
// full pass on ZMM: each of its four positions holds its eight lanes in
// one accumulator, and each term is one VBROADCASTSD, one VMULPD and one
// VADDPD per position. A zero kind skips the add where VCMPPD NEQ_UQ
// leaves a lane's mask bit clear. A pass of at most three distinct
// positions runs on convPassesAVX2's YMM nests (SHORT8): one or two chains
// of 512-bit adds wait on the add's four-cycle latency, where the same
// positions on YMM keep two or four chains of two-cycle adds.
TEXT ·convPassesAVX512(SB), NOSPLIT, $8-8
	SETUP
	VBROADCASTSD X14, Z14

pass:
	CURSORS
	CMPQ PASS_NP(BX), $4
	JLT  init8
	VMOVUPD (CX), Z0
	VMOVAPD Z0, Z1
	VMOVAPD Z0, Z2
	VMOVAPD Z0, Z3
	CMPQ    PASS_N1(BX), $0
	JEQ     zstore
	CMPQ    PASS_N2(BX), $0
	JEQ     zstore
	MOVQ    RUN_KIND(AX), CX
	CMPQ    CX, $1
	JLT     z8b
	JEQ     z8bz
	CMPQ    CX, $2
	JEQ     z8v
	JMP     z8vz

init8:
	INIT8
	SKIP8
	MOVQ RUN_KIND(AX), CX
	SHORT8
	NEST(TAP_Z8B, z8b, z8brow, z8bcol, zstore)
	NEST(TAP_Z8BZ, z8bz, z8bzrow, z8bzcol, zstore)
	NEST(TAP_Z8V, z8v, z8vrow, z8vcol, zstore)
	NEST(TAP_Z8VZ, z8vz, z8vzrow, z8vzcol, zstore)

	STORE8

zstore:
	MOVQ RUN_R(AX), DX
	MOVQ RUN_RSTEP(AX), R8
	SHLQ $3, R8
	ZSTORE(0, Y0, X0, Z0, zstore1)

zstore1:
	ZSTORE(1, Y1, X1, Z1, zstore2)

zstore2:
	ZSTORE(2, Y2, X2, Z2, zstore3)

zstore3:
	ZSTORE(3, Y3, X3, Z3, next)

next:
	ADDQ $PASS_SIZE, BX
	DECQ npass-8(SP)
	JNZ  pass
	VZEROUPPER
	RET
