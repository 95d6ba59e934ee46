//go:build amd64

package tensor

// amd64 backend of the GEMM micro-kernels (gemm_amd64.s): two AVX2 tile
// kernels, each holding its C tile in eight YMM accumulators. The float64
// kernel's tile is 4×8 (four lanes a register, two registers a row), the
// float32 kernel's 8×8 (eight lanes, one register a row: double the
// elements per vector op on the same register budget). Lanes map to
// distinct output columns and each depth step performs a separate VMULPx
// then VADDPx per lane — the identical IEEE-754 operation sequence to the
// scalar kernels, so results are bit-for-bit the same as microKernelGo and
// the naive reference. FMA is deliberately NOT used: fused multiply-adds
// skip the product rounding step and would break bit-identity with the
// scalar path.
//
// AVX2 is detected once at init via CPUID/XGETBV (instruction support
// plus OS YMM state enablement); without it the portable Go kernel runs.

// microKernel4x8AVX2 is microKernelAVX2 (gemm.go) for float64: see there
// for the contract. The A rows of a depth step are r = 0…3.
//
//go:noescape
func microKernel4x8AVX2(c *float64, ldc int, a *float64, aRow, aDepth int, b *float64, bDepth, kc int, first bool)

// microKernel8x8AVX2F32 is microKernelAVX2 for float32, rows r = 0…7.
//
//go:noescape
func microKernel8x8AVX2F32(c *float32, ldc int, a *float32, aRow, aDepth int, b *float32, bDepth, kc int, first bool)

// cpuidRaw executes CPUID with the given leaf/subleaf.
func cpuidRaw(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbvRaw reads XCR0 (requires OSXSAVE, checked by the caller).
func xgetbvRaw() (eax, edx uint32)

// gemmUseAsm gates the assembly micro-kernels (both element types, and
// the VecMat and AddVec kernels beside them); tests flip it to cover the
// portable kernels on AVX2 machines and assert both produce the same bits.
var gemmUseAsm = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuidRaw(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidRaw(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if lo, _ := xgetbvRaw(); lo&0x6 != 0x6 { // XMM and YMM state saved by the OS
		return false
	}
	_, b7, _, _ := cpuidRaw(7, 0)
	return b7&(1<<5) != 0 // AVX2
}
