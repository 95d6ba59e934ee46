package autograd

import (
	"math"

	"repro/internal/tensor"
)

// ReLU returns max(0, a) elementwise: a where a > 0, +0 everywhere else
// (negatives, −0 and NaN). Forward and backward are tensor kernels with no
// branch on the data (tensor.ReLUVec, tensor.ReLUBackVec).
func ReLU(a *Var) *Var {
	tp := tapeOf(a)
	nd := tp.node(opGeneric, reluBack, a, nil, nil)
	out := tp.result(nd, a.Value.Shape...)
	tensor.ReLUVec(out.Value.Data, a.Value.Data)
	return out
}

//mlperfvet:hotpath
func reluBack(nd *node) {
	tensor.ReLUBackVec(nd.a.Grad.Data, nd.out.Grad.Data, nd.a.Value.Data)
}

// Sigmoid returns 1/(1+exp(-a)) elementwise.
func Sigmoid(a *Var) *Var {
	tp := tapeOf(a)
	nd := tp.node(opGeneric, sigmoidBack, a, nil, nil)
	out := tp.result(nd, a.Value.Shape...)
	tensor.ApplyInto(out.Value, a.Value, func(v float64) float64 { return 1 / (1 + math.Exp(-v)) })
	return out
}

func sigmoidBack(nd *node) {
	a, out := nd.a, &nd.out
	for i := range a.Grad.Data {
		y := out.Value.Data[i]
		a.Grad.Data[i] += out.Grad.Data[i] * y * (1 - y)
	}
}

// Tanh returns tanh(a) elementwise.
func Tanh(a *Var) *Var {
	tp := tapeOf(a)
	nd := tp.node(opGeneric, tanhBack, a, nil, nil)
	out := tp.result(nd, a.Value.Shape...)
	tensor.ApplyInto(out.Value, a.Value, math.Tanh)
	return out
}

func tanhBack(nd *node) {
	a, out := nd.a, &nd.out
	for i := range a.Grad.Data {
		y := out.Value.Data[i]
		a.Grad.Data[i] += out.Grad.Data[i] * (1 - y*y)
	}
}

// SoftmaxRows applies a numerically stable softmax to each row of a 2-D var.
// Gradient: dx_i = y_i * (dy_i - Σ_j dy_j y_j), per row.
func SoftmaxRows(a *Var) *Var {
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	tp := tapeOf(a)
	nd := tp.node(opGeneric, softmaxRowsBack, a, nil, nil)
	out := tp.result(nd, n, m)
	copy(out.Value.Data, a.Value.Data)
	for i := 0; i < n; i++ {
		softmaxRow(out.Value.Data[i*m : (i+1)*m])
	}
	return out
}

// expUnderflow bounds the arguments softmaxRow hands to math.Exp: below it
// Exp returns exactly +0 (its own underflow threshold is −745.13), so the
// call is skipped and the +0 written directly. Causal attention puts half
// of every score block there.
const expUnderflow = -745.2

// softmaxRow is the stable softmax of one row, in place: subtract the row
// maximum, exponentiate and sum in ascending order, divide by the sum.
//
//mlperfvet:hotpath
func softmaxRow(row []float64) {
	mx := row[0]
	for _, x := range row[1:] {
		if x > mx {
			mx = x
		}
	}
	s := 0.0
	for j, x := range row {
		e := 0.0
		if a := x - mx; !(a < expUnderflow) {
			e = math.Exp(a)
		}
		row[j] = e
		s += e
	}
	for j := range row {
		row[j] /= s
	}
}

func softmaxRowsBack(nd *node) {
	a, out := nd.a, &nd.out
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	for i := 0; i < n; i++ {
		dot := 0.0
		for j := 0; j < m; j++ {
			dot += out.Grad.Data[i*m+j] * out.Value.Data[i*m+j]
		}
		for j := 0; j < m; j++ {
			y := out.Value.Data[i*m+j]
			a.Grad.Data[i*m+j] += y * (out.Grad.Data[i*m+j] - dot)
		}
	}
}
