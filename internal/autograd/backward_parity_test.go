package autograd

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// The backward loops the scatter-adds, Mul and ReLU ran before they became
// tensor kernel calls, kept verbatim as the oracle for
// TestScatterAddBackwardParity.

func mulBackRef(nd *node) {
	a, b, out := nd.a, nd.b, &nd.out
	if a.tape != nil {
		for i := range a.Grad.Data {
			a.Grad.Data[i] += out.Grad.Data[i] * b.Value.Data[i]
		}
	}
	if b.tape != nil {
		for i := range b.Grad.Data {
			b.Grad.Data[i] += out.Grad.Data[i] * a.Value.Data[i]
		}
	}
}

func reluBackRef(nd *node) {
	a, out := nd.a, &nd.out
	for i := range a.Grad.Data {
		if a.Value.Data[i] > 0 {
			a.Grad.Data[i] += out.Grad.Data[i]
		}
	}
}

func reshapeBackRef(nd *node) {
	ag, og := nd.a.Grad.Data, nd.out.Grad.Data
	for i := range ag {
		ag[i] += og[i]
	}
}

func concatColsBackRef(nd *node) {
	out := &nd.out
	n, total := out.Value.Shape[0], out.Value.Shape[1]
	off := 0
	for _, v := range nd.vars {
		m := v.Value.Shape[1]
		if v.tape != nil {
			for i := 0; i < n; i++ {
				for j := 0; j < m; j++ {
					v.Grad.Data[i*m+j] += out.Grad.Data[i*total+off+j]
				}
			}
		}
		off += m
	}
}

func concatRowsBackRef(nd *node) {
	out := &nd.out
	m := out.Value.Shape[1]
	off := 0
	for _, v := range nd.vars {
		n := v.Value.Shape[0]
		if v.tape != nil {
			for i := 0; i < n*m; i++ {
				v.Grad.Data[i] += out.Grad.Data[off*m+i]
			}
		}
		off += n
	}
}

func sliceColsBackRef(nd *node) {
	a, out := nd.a, &nd.out
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	lo := nd.i0
	w := nd.i1 - nd.i0
	for i := 0; i < n; i++ {
		for j := 0; j < w; j++ {
			a.Grad.Data[i*m+lo+j] += out.Grad.Data[i*w+j]
		}
	}
}

func sliceRowsBackRef(nd *node) {
	a, out := nd.a, &nd.out
	m := a.Value.Shape[1]
	lo := nd.i0
	h := nd.i1 - nd.i0
	for i := 0; i < h*m; i++ {
		a.Grad.Data[lo*m+i] += out.Grad.Data[i]
	}
}

func gatherRowsBackRef(nd *node) {
	a, out := nd.a, &nd.out
	m := a.Value.Shape[1]
	for i, id := range nd.idx {
		for j := 0; j < m; j++ {
			a.Grad.Data[id*m+j] += out.Grad.Data[i*m+j]
		}
	}
}

// TestScatterAddBackwardParity runs each rewritten backward and the loop it
// replaced on the same node, from the same operand gradients, and holds
// them to the same bits. Operand gradients start from random values with
// −0 scattered in (a backward accumulates into whatever is there), the
// upstream gradient holds −0 rows and elements (negZeroUpstream), and the
// shapes are the ones the models run (NCF's [40,8] embeddings and [40,16]
// concatenation) plus odd widths that leave every AddVec a scalar tail.
// GatherRows runs with repeated, unsorted ids, so a row that several ids
// name must take their contributions in gather order.
func TestScatterAddBackwardParity(t *testing.T) {
	rng := tensor.NewRNG(97)
	negZero := math.Copysign(0, -1)
	randn := func(shape ...int) *tensor.Tensor {
		x := tensor.Randn(rng, 1, shape...)
		for i := range x.Data {
			if rng.Intn(7) == 0 {
				x.Data[i] = negZero
			}
		}
		return x
	}
	cases := []struct {
		name  string
		ref   func(*node)
		build func(tp *Tape) (*Var, []*Var)
	}{
		{"ConcatCols/ncf_40x8+40x8", concatColsBackRef, func(tp *Tape) (*Var, []*Var) {
			x, y := tp.Leaf(randn(40, 8)), tp.Leaf(randn(40, 8))
			return ConcatCols(x, y), []*Var{x, y}
		}},
		{"ConcatCols/5x3+const+5x6+repeat", concatColsBackRef, func(tp *Tape) (*Var, []*Var) {
			x, y := tp.Leaf(randn(5, 3)), tp.Leaf(randn(5, 6))
			return ConcatCols(x, Const(randn(5, 1)), y, x), []*Var{x, y}
		}},
		{"GatherRows/ncf_40_of_50x8", gatherRowsBackRef, func(tp *Tape) (*Var, []*Var) {
			a := tp.Leaf(randn(50, 8))
			idx := make([]int, 40)
			for i := range idx {
				idx[i] = rng.Intn(12) // few ids, so most repeat
			}
			return GatherRows(a, idx), []*Var{a}
		}},
		{"GatherRows/unsorted_repeats_10x5", gatherRowsBackRef, func(tp *Tape) (*Var, []*Var) {
			a := tp.Leaf(randn(10, 5))
			return GatherRows(a, []int{7, 2, 7, 0, 9, 2, 2, 5, 7}), []*Var{a}
		}},
		{"SliceCols/6x10[3,8)", sliceColsBackRef, func(tp *Tape) (*Var, []*Var) {
			a := tp.Leaf(randn(6, 10))
			return SliceCols(a, 3, 8), []*Var{a}
		}},
		{"SliceCols/40x16[8,16)", sliceColsBackRef, func(tp *Tape) (*Var, []*Var) {
			a := tp.Leaf(randn(40, 16))
			return SliceCols(a, 8, 16), []*Var{a}
		}},
		{"SliceRows/9x5[2,7)", sliceRowsBackRef, func(tp *Tape) (*Var, []*Var) {
			a := tp.Leaf(randn(9, 5))
			return SliceRows(a, 2, 7), []*Var{a}
		}},
		{"ConcatRows/2x5+3x5+const+1x5", concatRowsBackRef, func(tp *Tape) (*Var, []*Var) {
			x, y, z := tp.Leaf(randn(2, 5)), tp.Leaf(randn(3, 5)), tp.Leaf(randn(1, 5))
			return ConcatRows(x, y, Const(randn(4, 5)), z), []*Var{x, y, z}
		}},
		{"Reshape/4x6->3x8", reshapeBackRef, func(tp *Tape) (*Var, []*Var) {
			a := tp.Leaf(randn(4, 6))
			return Reshape(a, 3, 8), []*Var{a}
		}},
		{"Mul/ncf_40x8", mulBackRef, func(tp *Tape) (*Var, []*Var) {
			a, b := tp.Leaf(randn(40, 8)), tp.Leaf(randn(40, 8))
			return Mul(a, b), []*Var{a, b}
		}},
		{"Mul/7x3_const_b", mulBackRef, func(tp *Tape) (*Var, []*Var) {
			a := tp.Leaf(randn(7, 3))
			return Mul(a, Const(randn(7, 3))), []*Var{a}
		}},
		{"ReLU/ncf_40x16", reluBackRef, func(tp *Tape) (*Var, []*Var) {
			a := tp.Leaf(randn(40, 16))
			return ReLU(a), []*Var{a}
		}},
	}
	for _, c := range cases {
		tp := NewTape()
		out, ins := c.build(tp)
		nd := tp.nodes[tp.n-1]
		out.Grad.Copy(negZeroUpstream(rng, out.Value.Shape[0], out.Value.Size()/out.Value.Shape[0]))
		start := make([]*tensor.Tensor, len(ins))
		for i, v := range ins {
			v.Grad.Copy(randn(v.Grad.Shape...))
			start[i] = v.Grad.Clone()
		}
		nd.back(nd)
		got := make([]*tensor.Tensor, len(ins))
		for i, v := range ins {
			got[i] = v.Grad.Clone()
			v.Grad.Copy(start[i])
		}
		c.ref(nd)
		for i, v := range ins {
			for j, w := range v.Grad.Data {
				if math.Float64bits(got[i].Data[j]) != math.Float64bits(w) {
					t.Fatalf("%s: operand %d grad[%d] = %v (%#x), the scalar loop gives %v (%#x)",
						c.name, i, j, got[i].Data[j], math.Float64bits(got[i].Data[j]), w, math.Float64bits(w))
				}
			}
		}
	}
}
