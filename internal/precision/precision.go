// Package precision simulates reduced-precision numeric formats in
// software. Figure 1 of the paper shows AlexNet/ImageNet validation-error
// curves under different weight representations: low-precision curves
// separate from fp32 only after tens of epochs, and some formats never
// reach the full-precision error. The paper's systems realize those formats
// in hardware; we reproduce the phenomenon by quantizing weights (and
// optionally gradients) after every optimizer step, which injects exactly
// the rounding noise that drives the effect. examples/precision sweeps the
// formats in decreasing fidelity, as the figure does.
package precision

import (
	"fmt"
	"math"

	"repro/internal/autograd"
)

// Format identifies a simulated numeric representation.
type Format int

const (
	// FP64 is the native compute type: no quantization (reference).
	FP64 Format = iota
	// FP32 is IEEE single precision (8-bit exponent, 23-bit mantissa).
	FP32
	// FP16 is IEEE half precision (5-bit exponent, 10-bit mantissa).
	FP16
	// BF16 is bfloat16 (8-bit exponent, 7-bit mantissa).
	BF16
	// Fixed16 is a 16-bit fixed-point format with a per-tensor dynamic
	// scale (Q-format with saturation).
	Fixed16
	// Fixed8 is an 8-bit fixed-point format with per-tensor dynamic scale.
	Fixed8
	// Ternary constrains each weight to {-s, 0, +s} with a per-tensor
	// scale s, as in trained ternary quantization (Zhu et al., 2016 —
	// the source of the paper's Figure 1).
	Ternary
)

// String returns the conventional name of the format.
func (f Format) String() string {
	switch f {
	case FP64:
		return "fp64"
	case FP32:
		return "fp32"
	case FP16:
		return "fp16"
	case BF16:
		return "bf16"
	case Fixed16:
		return "fixed16"
	case Fixed8:
		return "fixed8"
	case Ternary:
		return "ternary"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// roundMantissa rounds v to a floating format with the given number of
// mantissa bits and exponent range, using round-to-nearest-even semantics
// via the bit-level trick of adding half a ULP in the float64 encoding.
func roundMantissa(v float64, mantissaBits uint, maxExp, minExp int) float64 {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	// Flush tiny values to zero (subnormal underflow).
	exp := math.Ilogb(v)
	if exp < minExp {
		return 0
	}
	// Saturate overflow to the largest finite value of the format.
	if exp > maxExp {
		return math.Copysign(math.Ldexp(2-math.Ldexp(1, -int(mantissaBits)), maxExp), v)
	}
	bits := math.Float64bits(v)
	shift := 52 - mantissaBits
	half := uint64(1) << (shift - 1)
	// Round-to-nearest-even on the retained mantissa bits.
	bits += half - 1 + ((bits >> shift) & 1)
	bits &^= (uint64(1) << shift) - 1
	return math.Float64frombits(bits)
}

// Quantize rounds a single value to the format. Fixed-point and ternary
// formats need a tensor-level scale, so they pass through here and are
// handled in QuantizeSlice.
func Quantize(v float64, f Format) float64 {
	switch f {
	case FP64:
		return v
	case FP32:
		return roundMantissa(v, 23, 127, -126)
	case FP16:
		return roundMantissa(v, 10, 15, -14)
	case BF16:
		return roundMantissa(v, 7, 127, -126)
	default:
		return v
	}
}

// QuantizeSlice rounds every element of xs to the format in place.
// Fixed-point formats compute a per-tensor scale from the max magnitude;
// ternary thresholds at 0.7·mean|x| as in trained ternary quantization.
func QuantizeSlice(xs []float64, f Format) {
	switch f {
	case FP64:
		return
	case FP32, FP16, BF16:
		for i, v := range xs {
			xs[i] = Quantize(v, f)
		}
	case Fixed16, Fixed8:
		bits := 16
		if f == Fixed8 {
			bits = 8
		}
		maxMag := 0.0
		for _, v := range xs {
			if a := math.Abs(v); a > maxMag {
				maxMag = a
			}
		}
		if maxMag == 0 {
			return
		}
		levels := float64(int64(1)<<(bits-1)) - 1
		scale := maxMag / levels
		for i, v := range xs {
			q := math.Round(v / scale)
			if q > levels {
				q = levels
			} else if q < -levels {
				q = -levels
			}
			xs[i] = q * scale
		}
	case Ternary:
		mean := 0.0
		for _, v := range xs {
			mean += math.Abs(v)
		}
		if len(xs) == 0 {
			return
		}
		mean /= float64(len(xs))
		thresh := 0.7 * mean
		// Scale = mean magnitude of the surviving weights.
		s, n := 0.0, 0
		for _, v := range xs {
			if math.Abs(v) > thresh {
				s += math.Abs(v)
				n++
			}
		}
		if n == 0 {
			for i := range xs {
				xs[i] = 0
			}
			return
		}
		s /= float64(n)
		for i, v := range xs {
			switch {
			case v > thresh:
				xs[i] = s
			case v < -thresh:
				xs[i] = -s
			default:
				xs[i] = 0
			}
		}
	}
}

// Policy configures which training tensors are quantized each step.
type Policy struct {
	Weights Format // applied to parameter values after each optimizer step
	Grads   Format // applied to gradients before the optimizer step
}

// FullPrecision returns the no-op policy.
func FullPrecision() Policy { return Policy{Weights: FP64, Grads: FP64} }

// WeightsOnly quantizes only the stored weights, matching Figure 1's
// "weight representation" sweep.
func WeightsOnly(f Format) Policy { return Policy{Weights: f, Grads: FP64} }

// ApplyToGrads quantizes accumulated gradients in place.
func (p Policy) ApplyToGrads(params []*autograd.Param) {
	if p.Grads == FP64 {
		return
	}
	for _, prm := range params {
		QuantizeSlice(prm.Grad.Data, p.Grads)
	}
}

// ApplyToWeights quantizes parameter values in place.
func (p Policy) ApplyToWeights(params []*autograd.Param) {
	if p.Weights == FP64 {
		return
	}
	for _, prm := range params {
		QuantizeSlice(prm.Value.Data, p.Weights)
	}
}
