//go:build amd64

package tensor

// amd64 backend of the GEMM micro-kernel: an AVX2 4×8 tile kernel
// (gemm_amd64.s) holding the C tile in eight YMM accumulators, four
// float64 lanes each. Lanes map to distinct output columns and each depth
// step performs a separate VMULPD then VADDPD per lane — the identical
// IEEE-754 operation sequence to the scalar kernels, so results are
// bit-for-bit the same as microKernel4x8 and the naive reference. FMA is
// deliberately NOT used: fused multiply-adds skip the product rounding
// step and would break bit-identity with the scalar path.
//
// AVX2 is detected once at init via CPUID/XGETBV (instruction support
// plus OS YMM state enablement); without it the portable Go kernel runs.

// microKernel4x8AVX2 accumulates the 4×8 C tile at c (row stride ldc
// elements) over kc depth steps. Depth step p reads four A values at
// a[p·aDepth + r·aRow], r = 0…3, and eight contiguous B values at
// b[p·bDepth]; strides are in elements. The packed engine passes panels
// ([kc][4] and [kc][8]: aRow 1, aDepth 4, bDepth 8), the pack-free path
// the operands themselves (gemmDirectTiles). When first is true the
// accumulators start at zero (overwrite semantics for the first depth
// panel); otherwise they load the current C values. kc must be >= 1.
//
//go:noescape
func microKernel4x8AVX2(c *float64, ldc int, a *float64, aRow, aDepth int, b *float64, bDepth, kc int, first bool)

// cpuidRaw executes CPUID with the given leaf/subleaf.
func cpuidRaw(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbvRaw reads XCR0 (requires OSXSAVE, checked by the caller).
func xgetbvRaw() (eax, edx uint32)

// gemmUseAsm gates the assembly micro-kernel; tests flip it to cover the
// portable kernel on AVX2 machines and assert both produce the same bits.
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
