// AVX2 GEMM micro-kernels: 4x8 float64 and 8x8 float32. See microKernelAVX2
// in gemm.go for the contract and that file's header for the determinism
// rationale (separate VMULPx + VADDPx per depth step — never FMA — so
// every lane reproduces the scalar kernels' rounding exactly).

#include "textflag.h"

// func microKernel4x8AVX2(c *float64, ldc int, a *float64, aRow, aDepth int, b *float64, bDepth, kc int, first bool)
//
// Register plan:
//   Y0..Y7  — the 4x8 C tile: Y(2r) = row r cols 0..3, Y(2r+1) = cols 4..7
//   Y8, Y9  — the current depth step's eight B values
//   Y10     — broadcast A value for the current row
//   Y11     — product temporary (mul then add; no FMA)
//   AX, BX  — A and B cursors; R12, R13 their depth strides in bytes
//   R9, R10 — one and three A row strides in bytes (two is R9*2)
TEXT ·microKernel4x8AVX2(SB), NOSPLIT, $0-65
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	SHLQ $3, SI            // row stride in bytes
	MOVQ a+16(FP), AX
	MOVQ aRow+24(FP), R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R10
	MOVQ aDepth+32(FP), R12
	SHLQ $3, R12
	MOVQ b+40(FP), BX
	MOVQ bDepth+48(FP), R13
	SHLQ $3, R13
	MOVQ kc+56(FP), CX
	MOVBQZX first+64(FP), DX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	TESTQ DX, DX
	JNZ   loop             // first panel: accumulators start at zero

	// Later panels: load the current C tile so each element continues its
	// ascending-k accumulation exactly where the previous panel left off.
	MOVQ    DI, R8
	VMOVUPD (R8), Y0
	VMOVUPD 32(R8), Y1
	ADDQ    SI, R8
	VMOVUPD (R8), Y2
	VMOVUPD 32(R8), Y3
	ADDQ    SI, R8
	VMOVUPD (R8), Y4
	VMOVUPD 32(R8), Y5
	ADDQ    SI, R8
	VMOVUPD (R8), Y6
	VMOVUPD 32(R8), Y7

loop:
	VMOVUPD (BX), Y8       // B cols 0..3
	VMOVUPD 32(BX), Y9     // B cols 4..7

	VBROADCASTSD (AX), Y10 // A row 0
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y1, Y1

	VBROADCASTSD (AX)(R9*1), Y10 // A row 1
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y3, Y3

	VBROADCASTSD (AX)(R9*2), Y10 // A row 2
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y5, Y5

	VBROADCASTSD (AX)(R10*1), Y10 // A row 3
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y7, Y7

	ADDQ R12, AX
	ADDQ R13, BX
	DECQ CX
	JNZ  loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    SI, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    SI, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    SI, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)

	VZEROUPPER
	RET

// func microKernel8x8AVX2F32(c *float32, ldc int, a *float32, aRow, aDepth int, b *float32, bDepth, kc int, first bool)
//
// Register plan:
//   Y0..Y7  — the 8x8 C tile: Y(r) = row r, eight float32 lanes
//   Y8      — the current depth step's eight B values
//   Y9      — broadcast A value for the current row
//   Y10     — product temporary (mul then add; no FMA)
//   AX, BX  — A and B cursors; R12, R13 their depth strides in bytes
//   R9, R10, R11, DX — one, three, five and seven A row strides in bytes
//             (two and four are R9*2 and R9*4, six is R10*2)
TEXT ·microKernel8x8AVX2F32(SB), NOSPLIT, $0-65
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	SHLQ $2, SI            // row stride in bytes (float32)
	MOVQ a+16(FP), AX
	MOVQ aRow+24(FP), R9
	SHLQ $2, R9
	LEAQ (R9)(R9*2), R10
	LEAQ (R9)(R9*4), R11
	LEAQ (R10)(R9*4), DX
	MOVQ aDepth+32(FP), R12
	SHLQ $2, R12
	MOVQ b+40(FP), BX
	MOVQ bDepth+48(FP), R13
	SHLQ $2, R13
	MOVQ kc+56(FP), CX
	MOVBQZX first+64(FP), R8

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	TESTQ R8, R8
	JNZ   loop           // first panel: accumulators start at zero

	// Later panels: load the current C tile so each element continues its
	// ascending-k accumulation exactly where the previous panel left off.
	MOVQ    DI, R8
	VMOVUPS (R8), Y0
	ADDQ    SI, R8
	VMOVUPS (R8), Y1
	ADDQ    SI, R8
	VMOVUPS (R8), Y2
	ADDQ    SI, R8
	VMOVUPS (R8), Y3
	ADDQ    SI, R8
	VMOVUPS (R8), Y4
	ADDQ    SI, R8
	VMOVUPS (R8), Y5
	ADDQ    SI, R8
	VMOVUPS (R8), Y6
	ADDQ    SI, R8
	VMOVUPS (R8), Y7

loop:
	VMOVUPS (BX), Y8       // B cols 0..7

	VBROADCASTSS (AX), Y9  // A row 0
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y0, Y0

	VBROADCASTSS (AX)(R9*1), Y9 // A row 1
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y1, Y1

	VBROADCASTSS (AX)(R9*2), Y9 // A row 2
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y2, Y2

	VBROADCASTSS (AX)(R10*1), Y9 // A row 3
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y3, Y3

	VBROADCASTSS (AX)(R9*4), Y9 // A row 4
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y4, Y4

	VBROADCASTSS (AX)(R11*1), Y9 // A row 5
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y5, Y5

	VBROADCASTSS (AX)(R10*2), Y9 // A row 6
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y6, Y6

	VBROADCASTSS (AX)(DX*1), Y9 // A row 7
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y7, Y7

	ADDQ R12, AX
	ADDQ R13, BX
	DECQ CX
	JNZ  loop

	VMOVUPS Y0, (DI)
	ADDQ    SI, DI
	VMOVUPS Y1, (DI)
	ADDQ    SI, DI
	VMOVUPS Y2, (DI)
	ADDQ    SI, DI
	VMOVUPS Y3, (DI)
	ADDQ    SI, DI
	VMOVUPS Y4, (DI)
	ADDQ    SI, DI
	VMOVUPS Y5, (DI)
	ADDQ    SI, DI
	VMOVUPS Y6, (DI)
	ADDQ    SI, DI
	VMOVUPS Y7, (DI)

	VZEROUPPER
	RET

// func cpuidRaw(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidRaw(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvRaw() (eax, edx uint32)
TEXT ·xgetbvRaw(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
