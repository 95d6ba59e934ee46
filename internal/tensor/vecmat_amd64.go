//go:build amd64

package tensor

import "unsafe"

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

// scaleVecAVX2 is ScaleVec's AVX2 kernel: dst[i] = s·src[i] for i < n,
// four float64 lanes to a VMULPD, a scalar tail. n must be at least 1.
//
//go:noescape
func scaleVecAVX2(dst, src *float64, n int, s float64)

// mulAddVecAVX2 is MulAddVec's AVX2 kernel: dst[i] += a[i]·b[i] for the
// first n &^ 3 elements, a VMULPD then a VADDPD per four lanes (never
// FMA). n must be at least 4.
//
//go:noescape
func mulAddVecAVX2(dst, a, b *float64, n int)

// reluVecAVX2 is ReLUVec's AVX2 kernel for the first n &^ 3 elements:
// each lane ANDed with its own 0 < src compare mask. n must be at least 4.
//
//go:noescape
func reluVecAVX2(dst, src *float64, n int)

// reluBackVecAVX2 is ReLUBackVec's AVX2 kernel for the first n &^ 3
// elements: grad + og blended over grad on the 0 < x compare mask. n must
// be at least 4.
//
//go:noescape
func reluBackVecAVX2(grad, og, x *float64, n int)

// adamStepAVX2 is AdamUpdate's AVX2 kernel: the update of the first
// n &^ 3 elements, four lanes to a pass, each lane running the scalar
// sequence with VMULPD/VADDPD/VDIVPD/VSQRTPD/VSUBPD (all correctly
// rounded, never FMA). It reads the coefficients in AdamCoef's field order.
//
//go:noescape
func adamStepAVX2(val, grad, m, v *float64, n int, c *AdamCoef)

// adamStepAVX2 addresses AdamCoef by these byte offsets. A field moved,
// added or removed stops the build here (a constant index into a
// one-element array must be 0) instead of corrupting the update on amd64
// only.
var _ = [...]struct{}{
	[1]struct{}{}[unsafe.Offsetof(AdamCoef{}.WeightDecay)-0],
	[1]struct{}{}[unsafe.Offsetof(AdamCoef{}.Beta1)-8],
	[1]struct{}{}[unsafe.Offsetof(AdamCoef{}.OneMinusBeta1)-16],
	[1]struct{}{}[unsafe.Offsetof(AdamCoef{}.Beta2)-24],
	[1]struct{}{}[unsafe.Offsetof(AdamCoef{}.OneMinusBeta2)-32],
	[1]struct{}{}[unsafe.Offsetof(AdamCoef{}.BiasCorr1)-40],
	[1]struct{}{}[unsafe.Offsetof(AdamCoef{}.BiasCorr2)-48],
	[1]struct{}{}[unsafe.Offsetof(AdamCoef{}.LR)-56],
	[1]struct{}{}[unsafe.Offsetof(AdamCoef{}.Eps)-64],
	[1]struct{}{}[unsafe.Sizeof(AdamCoef{})-72],
}
