package autograd

import (
	"fmt"

	"repro/internal/tensor"
)

// Gradient flattening: the training engine (internal/pipeline) exchanges
// gradients as one contiguous vector per replica, the layout collective
// libraries (NCCL, Horovod) call a fusion buffer. The flat layout is the
// concatenation of each parameter's gradient in parameter-list order, so
// two replicas built from the same factory share offsets.

// FlatSize returns the total element count of the flattened parameter list.
func FlatSize(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Value.Size()
	}
	return n
}

// FlattenGradsScaled writes scale·grad for every parameter into dst in
// parameter-list order. dst must have length FlatSize(params).
//
//mlperfvet:hotpath
func FlattenGradsScaled(dst []float64, params []*Param, scale float64) {
	if len(dst) != FlatSize(params) {
		panic(fmt.Sprintf("autograd: FlattenGradsScaled dst length %d, want %d", len(dst), FlatSize(params)))
	}
	o := 0
	for _, p := range params {
		g := p.Grad.Data
		tensor.ScaleVec(dst[o:o+len(g)], g, scale)
		o += len(g)
	}
}

// ScatterGrads copies a flat gradient vector back into the parameters'
// gradient buffers, overwriting any accumulated values. src must have
// length FlatSize(params).
//
//mlperfvet:hotpath
func ScatterGrads(src []float64, params []*Param) {
	if len(src) != FlatSize(params) {
		panic(fmt.Sprintf("autograd: ScatterGrads src length %d, want %d", len(src), FlatSize(params)))
	}
	o := 0
	for _, p := range params {
		copy(p.Grad.Data, src[o:o+p.Grad.Size()])
		o += p.Grad.Size()
	}
}

// ParamsEqual reports whether two parallel parameter lists hold bit-identical
// values — the replica-synchronization invariant data-parallel training
// maintains (and tests assert).
func ParamsEqual(a, b []*Param) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Value.Size() != b[i].Value.Size() {
			return false
		}
		for j, v := range a[i].Value.Data {
			if b[i].Value.Data[j] != v {
				return false
			}
		}
	}
	return true
}
