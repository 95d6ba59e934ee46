//go:build !amd64

package tensor

// Non-amd64 architectures run the portable register-tiled micro-kernel
// (microKernel4x8 in gemm.go), which performs the identical IEEE-754
// operation sequence — the engine's bit-identity contract does not depend
// on the assembly backend.

var gemmUseAsm = false

func microKernel4x8AVX2(c *float64, ldc int, a *float64, aRow, aDepth int, b *float64, bDepth, kc int, first bool) {
	panic("tensor: assembly GEMM micro-kernel unavailable on this architecture")
}
