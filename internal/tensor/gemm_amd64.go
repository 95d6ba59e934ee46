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

// gemmUseAsm gates the AVX2 kernels (both GEMM element types, the VecMat
// and elementwise kernels beside them, BatchNorm and the convolution
// body); convUseAVX512 gates the convolution's AVX-512 body for runs of
// eight lanes (conv_amd64.go). Both are facts of the CPU read once here,
// never options; tests flip them to cover the other bodies and assert that
// every body produces the same bits.
var gemmUseAsm, convUseAVX512 = cpuGates(cpuState())

// The CPUID and XCR0 bits the gates read.
const (
	cpuidOSXSAVE = 1 << 27 // leaf 1 ECX: the OS enabled XGETBV
	cpuidAVX     = 1 << 28 // leaf 1 ECX
	cpuidAVX2    = 1 << 5  // leaf 7 EBX
	cpuidAVX512F = 1 << 16 // leaf 7 EBX: the only AVX-512 subset conv_amd64.s uses
	xcr0YMM      = 0x06    // XMM and YMM state saved by the OS
	xcr0ZMM      = 0xE6    // those, opmask, ZMM_Hi256 and Hi16_ZMM state
)

// cpuGates is the one predicate under both gates, over CPUID leaf 1's
// ECX, leaf 7's EBX and XCR0: AVX2 needs OSXSAVE, AVX and AVX2 with the
// YMM state saved; AVX-512 needs all of that, AVX512F and the opmask and
// ZMM state saved too. A pure function, so its table test runs anywhere.
func cpuGates(ecx1, ebx7, xcr0 uint32) (avx2, avx512 bool) {
	if ecx1&(cpuidOSXSAVE|cpuidAVX) != cpuidOSXSAVE|cpuidAVX {
		return false, false
	}
	avx2 = ebx7&cpuidAVX2 != 0 && xcr0&xcr0YMM == xcr0YMM
	avx512 = avx2 && ebx7&cpuidAVX512F != 0 && xcr0&xcr0ZMM == xcr0ZMM
	return avx2, avx512
}

// cpuState reads cpuGates' operands from this CPU: leaf 7 reads as 0 when
// CPUID stops below it, and XCR0 as 0 unless the OS enabled XGETBV.
func cpuState() (ecx1, ebx7, xcr0 uint32) {
	maxID, _, _, _ := cpuidRaw(0, 0)
	_, _, ecx1, _ = cpuidRaw(1, 0)
	if maxID >= 7 {
		_, ebx7, _, _ = cpuidRaw(7, 0)
	}
	if ecx1&cpuidOSXSAVE != 0 {
		xcr0, _ = xgetbvRaw()
	}
	return ecx1, ebx7, xcr0
}
