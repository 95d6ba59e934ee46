package tensor

import (
	"fmt"
	"math"
)

// F32 is the reduced-precision staging tensor: a dense row-major float32
// buffer the autograd tape lowers float64 operands into before running the
// f32 GEMM engine. Unlike Tensor it is deliberately minimal — plain heap
// storage, no arena hookup, no Release — because its only steady-state
// users hold one F32 per tape slot and reuse the same backing buffer every
// step (shape-stable replay), so pooling would add bookkeeping for zero
// allocation wins.
type F32 struct {
	Shape []int
	Data  []float32
}

// NewF32 returns a zero-filled float32 tensor of the given shape.
func NewF32(shape ...int) *F32 {
	return &F32{Shape: append([]int(nil), shape...), Data: make([]float32, numel(shape))}
}

// BF16Round rounds a float32 to bfloat16 precision and returns it as a
// float32: the low 16 mantissa bits are rounded away to nearest-even, the
// 8-bit exponent is untouched (bf16 shares float32's exponent range, so
// there is no overflow or subnormal-flush step — float32 subnormals round
// within the subnormal range like any other value). NaN and Inf pass
// through unchanged; the rounding increment below would otherwise carry a
// quiet-NaN mantissa into the exponent field.
//
//mlperfvet:hotpath
func BF16Round(x float32) float32 {
	b := math.Float32bits(x)
	if b&0x7F800000 == 0x7F800000 { // NaN or Inf: exponent all ones
		return x
	}
	// Round to nearest, ties to even: add half of the discarded range,
	// plus one more when the keep-bit is odd, then truncate.
	b += 0x7FFF + ((b >> 16) & 1)
	b &^= 0xFFFF
	return math.Float32frombits(b)
}

// FromF64 stages src into t under the given compute regime: Float32
// narrows each element to float32 (round to nearest even, IEEE
// narrowing); BFloat16 additionally rounds the float32 to bfloat16
// precision. The two-step
// f64→f32→bf16 conversion can double-round — for a float64 sitting within
// 2⁻²⁵ of a float32 tie point the result may differ by one bf16 ulp from a
// direct f64→bf16 rounding — which is exactly what hardware bf16 units fed
// from f32 registers do, and the statistical verification regime absorbs
// it. Shapes must match element-for-element. Passing Float64 panics: the
// reference regime never stages through F32.
//
//mlperfvet:hotpath
func (t *F32) FromF64(src *Tensor, d DType) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: FromF64 length mismatch %d vs %d", len(t.Data), len(src.Data)))
	}
	switch d {
	case Float32:
		for i, v := range src.Data {
			t.Data[i] = float32(v)
		}
	case BFloat16:
		for i, v := range src.Data {
			t.Data[i] = BF16Round(float32(v))
		}
	default:
		panic("tensor: FromF64 requires a reduced dtype (F32 or BF16)")
	}
}

// CopyToF64 widens t into dst (dst[i] = float64(t.Data[i])); widening is
// exact, so the float32 result bits are preserved verbatim.
//
//mlperfvet:hotpath
func (t *F32) CopyToF64(dst *Tensor) {
	if len(t.Data) != len(dst.Data) {
		panic(fmt.Sprintf("tensor: CopyToF64 length mismatch %d vs %d", len(t.Data), len(dst.Data)))
	}
	for i, v := range t.Data {
		dst.Data[i] = float64(v)
	}
}

// AddToF64 accumulates t into dst (dst[i] += float64(t.Data[i])) — the
// gradient hand-off of the reduced-precision backward pass: per-op
// gradients are computed in float32 but summed across ops in float64, so
// accumulation order effects stay at full precision.
//
//mlperfvet:hotpath
func (t *F32) AddToF64(dst *Tensor) {
	if len(t.Data) != len(dst.Data) {
		panic(fmt.Sprintf("tensor: AddToF64 length mismatch %d vs %d", len(t.Data), len(dst.Data)))
	}
	for i, v := range t.Data {
		dst.Data[i] += float64(v)
	}
}
