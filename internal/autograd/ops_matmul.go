package autograd

import (
	"fmt"

	"repro/internal/tensor"
)

// MatMul returns a·b for a [n,k] and b [k,m].
// Gradients: da = dout·bᵀ, db = aᵀ·dout.
//
// Forward and both backward products run on the blocked, packed GEMM
// engine behind tensor.MatMul*Into. The engine owns its parallelism (2-D
// output tiles over the worker pool) and its workspaces (pack buffers
// from a shared arena), so the op needs no cached kernel closures: the
// serial dispatch path inside the engine allocates nothing, keeping warm
// tape replays at 0 allocs/op.
func MatMul(a, b *Var) *Var { return matMul(tapeOf(a, b), a, b, nil) }

// Linear returns x·w + bias for x [n,k], w [k,m] and bias [m]: the dense
// layer as ONE tape node, the MatMul node with the bias as a third
// operand. Forward runs the product into the output (in either compute
// regime) and adds bias[j] to every row in place: the gemm[i,j] + bias[j]
// that AddRowVec(MatMul(x, w), bias) computes, one rounding, same
// operands. Backward adds the upstream gradient into bias.Grad row by
// ascending row, as addRowVecBack does, then runs MatMul's two products
// on that same gradient. Against the composed pair it saves a node, a
// zeroed result, the forward copy and the backward pass-through add.
//
// Signed zeros. The composed MatMul node reads +0 + g (its zeroed
// gradient buffer after AddRowVec's pass-through add), this node reads g
// itself, and the two differ where g is −0. No bit that leaves the node
// does: dx and dw are GEMM sums that start at +0, and +0 + (±0·v) is +0
// either way, after which every partial sum is equal; bias.Grad starts at
// +0 (NewParam, ZeroGrad) and a sum that starts at +0 never reaches −0,
// so adding −0 or +0 to it is the same identity.
// TestLinearNodeMatchesComposed pins it with −0 rows upstream.
//
// A constant product with a watched bias takes the same node: its
// backward skips the operands that are constants.
func Linear(x, w, bias *Var) *Var { return matMul(tapeOf(x, w, bias), x, w, bias) }

// matMul records the MatMul node, with an optional bias epilogue.
func matMul(tp *Tape, a, b, bias *Var) *Var {
	if a.Value.Rank() != 2 || b.Value.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v x %v", a.Value.Shape, b.Value.Shape))
	}
	n, k := a.Value.Shape[0], a.Value.Shape[1]
	k2, m := b.Value.Shape[0], b.Value.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.Value.Shape, b.Value.Shape))
	}
	if bias != nil && (bias.Value.Rank() != 1 || bias.Value.Shape[0] != m) {
		panic(fmt.Sprintf("autograd: Linear bias %v for a %v product", bias.Value.Shape, []int{n, m}))
	}
	var out *Var
	if tp.dtype != tensor.Float64 {
		// Reduced-precision regime: stage the operands at compute
		// precision (narrowed to f32; additionally bf16-rounded under
		// BFloat16), run the f32 engine with fp32 accumulation, widen the
		// result back. The staged operands stay live in the node for the
		// backward products.
		nd := tp.node(opGeneric, matMulLPBack, a, b, bias)
		out = tp.result(nd, n, m)
		la := ensureF32(&nd.lpa, n, k)
		lb := ensureF32(&nd.lpb, k, m)
		lo := ensureF32(&nd.lpo, n, m)
		la.FromF64(a.Value, tp.dtype)
		lb.FromF64(b.Value, tp.dtype)
		tensor.MatMulF32Into(lo, la, lb)
		lo.CopyToF64(out.Value)
	} else {
		nd := tp.node(opGeneric, matMulBack, a, b, bias)
		out = tp.result(nd, n, m)
		tensor.MatMulInto(out.Value, a.Value, b.Value)
	}
	if bias != nil {
		for i := 0; i < n; i++ {
			tensor.AddVec(out.Value.Data[i*m:(i+1)*m], bias.Value.Data)
		}
	}
	return out
}

// biasBack accumulates a Linear node's upstream gradient into its bias
// gradient, one output row at a time in ascending row order: element j
// receives addRowVecBack's sequence of adds.
//
//mlperfvet:hotpath
func biasBack(nd *node) {
	bias := nd.c
	if bias == nil || bias.tape == nil {
		return
	}
	g, m := nd.out.Grad.Data, len(bias.Grad.Data)
	for lo := 0; lo < len(g); lo += m {
		tensor.AddVec(bias.Grad.Data, g[lo:lo+m])
	}
}

// matMulLPBack runs both backward products at compute precision: the
// upstream gradient is staged with the same dtype rounding as the forward
// operands (reusing the forward-output buffer — same shape), each product
// runs on the f32 engine, and the float32 results accumulate into the
// float64 gradient buffers, so cross-op gradient accumulation stays at
// full precision.
//
//mlperfvet:hotpath
func matMulLPBack(nd *node) {
	biasBack(nd)
	a, b := nd.a, nd.b
	n, k := a.Value.Shape[0], a.Value.Shape[1]
	m := b.Value.Shape[1]
	nd.lpo.FromF64(nd.out.Grad, nd.tape.dtype)
	if a.tape != nil {
		// da = dout·bᵀ
		lda := ensureF32(&nd.lpda, n, k)
		tensor.MatMulF32TransBInto(lda, nd.lpo, nd.lpb)
		lda.AddToF64(a.Grad)
	}
	if b.tape != nil {
		// db = aᵀ·dout
		ldb := ensureF32(&nd.lpdb, k, m)
		tensor.MatMulF32TransAInto(ldb, nd.lpa, nd.lpo)
		ldb.AddToF64(b.Grad)
	}
}

//mlperfvet:hotpath
func matMulBack(nd *node) {
	biasBack(nd)
	a, b := nd.a, nd.b
	n, k := a.Value.Shape[0], a.Value.Shape[1]
	m := b.Value.Shape[1]
	if a.tape != nil {
		// da = dout·bᵀ, computed into pooled scratch and then accumulated,
		// matching the allocate-then-AddInPlace bits of the original op.
		nd.tape.ensureTensor(&nd.t0, n, k)
		tensor.MatMulTransBInto(nd.t0, nd.out.Grad, b.Value)
		a.Grad.AddInPlace(nd.t0)
	}
	if b.tape != nil {
		// db = aᵀ·dout.
		nd.tape.ensureTensor(&nd.t1, k, m)
		tensor.MatMulTransAInto(nd.t1, a.Value, nd.out.Grad)
		b.Grad.AddInPlace(nd.t1)
	}
}

// Transpose returns aᵀ for a 2-D var.
func Transpose(a *Var) *Var {
	if a.Value.Rank() != 2 {
		panic("tensor: Transpose2D requires rank 2")
	}
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	tp := tapeOf(a)
	nd := tp.node(opGeneric, transposeBack, a, nil, nil)
	out := tp.result(nd, m, n)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			out.Value.Data[j*n+i] = a.Value.Data[i*m+j]
		}
	}
	return out
}

//mlperfvet:hotpath
func transposeBack(nd *node) {
	// Each grad element receives exactly one term, so accumulating directly
	// is bit-identical to transposing into scratch first.
	a, out := nd.a, &nd.out
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			a.Grad.Data[i*m+j] += out.Grad.Data[j*n+i]
		}
	}
}

// RowSum reduces a [n,m] var to [n,1] by summing each row.
func RowSum(a *Var) *Var {
	if a.Value.Rank() != 2 {
		panic(fmt.Sprintf("autograd: RowSum of shape %v", a.Value.Shape))
	}
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	tp := tapeOf(a)
	nd := tp.node(opGeneric, rowSumBack, a, nil, nil)
	out := tp.result(nd, n, 1)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < m; j++ {
			s += a.Value.Data[i*m+j]
		}
		out.Value.Data[i] = s
	}
	return out
}

//mlperfvet:hotpath
func rowSumBack(nd *node) {
	a, out := nd.a, &nd.out
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	for i := 0; i < n; i++ {
		g := out.Grad.Data[i]
		for j := 0; j < m; j++ {
			a.Grad.Data[i*m+j] += g
		}
	}
}

// Sum reduces to a scalar.
func Sum(a *Var) *Var {
	tp := tapeOf(a)
	nd := tp.node(opGeneric, sumBack, a, nil, nil)
	out := tp.result(nd, 1)
	out.Value.Data[0] = a.Value.Sum()
	return out
}

//mlperfvet:hotpath
func sumBack(nd *node) {
	g := nd.out.Grad.Data[0]
	for i := range nd.a.Grad.Data {
		nd.a.Grad.Data[i] += g
	}
}
