//go:build !amd64

package tensor

// Non-amd64 architectures run the portable micro-kernel (microKernelGo in
// gemm.go), which performs the identical IEEE-754 operation sequence — the
// engine's bit-identity contract does not depend on the assembly backend.
// The stubs keep the signatures of gemm_amd64.go so microKernelAVX2
// type-checks.

var gemmUseAsm, convUseAVX512 = false, false

func microKernel4x8AVX2(c *float64, ldc int, a *float64, aRow, aDepth int, b *float64, bDepth, kc int, first bool) {
	panic("tensor: assembly GEMM micro-kernel unavailable on this architecture")
}

func microKernel8x8AVX2F32(c *float32, ldc int, a *float32, aRow, aDepth int, b *float32, bDepth, kc int, first bool) {
	panic("tensor: assembly GEMM micro-kernel unavailable on this architecture")
}
