//go:build amd64

package tensor

// vecMatAVX2 is VecMat's AVX2 kernel (vecmat_amd64.s), gated by the shared
// gemmUseAsm flag. Output columns go twelve, eight or four to a pass, in
// three, two or one YMM accumulators of four float64 lanes, then one at a
// time; each term is a VBROADCASTSD of a[t·as], a VMULPD, then a VADDPD,
// so every lane runs vecMatGo's operation sequence. n and terms must be at
// least 1; as and xs are strides in elements.
//
//go:noescape
func vecMatAVX2(dst *float64, n int, a *float64, as int, x *float64, xs, terms int)

// addVecAVX2 is AddInPlace's AVX2 kernel: dst[i] += src[i] for i < n, four
// float64 lanes to a VADDPD, a scalar tail. n must be at least 1.
//
//go:noescape
func addVecAVX2(dst, src *float64, n int)
