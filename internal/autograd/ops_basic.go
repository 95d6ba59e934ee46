package autograd

import (
	"fmt"

	"repro/internal/tensor"
)

// Add returns a + b (elementwise, equal shapes).
func Add(a, b *Var) *Var {
	tp := tapeOf(a, b)
	nd := tp.node(opGeneric, addBack, a, b, nil)
	out := tp.result(nd, a.Value.Shape...)
	tensor.AddInto(out.Value, a.Value, b.Value)
	return out
}

//mlperfvet:hotpath
func addBack(nd *node) {
	if nd.a.tape != nil {
		nd.a.Grad.AddInPlace(nd.out.Grad)
	}
	if nd.b.tape != nil {
		nd.b.Grad.AddInPlace(nd.out.Grad)
	}
}

// Mul returns the Hadamard product a * b.
func Mul(a, b *Var) *Var {
	tp := tapeOf(a, b)
	nd := tp.node(opGeneric, mulBack, a, b, nil)
	out := tp.result(nd, a.Value.Shape...)
	tensor.MulInto(out.Value, a.Value, b.Value)
	return out
}

//mlperfvet:hotpath
func mulBack(nd *node) {
	a, b, og := nd.a, nd.b, nd.out.Grad.Data
	if a.tape != nil {
		tensor.MulAddVec(a.Grad.Data, og, b.Value.Data)
	}
	if b.tape != nil {
		tensor.MulAddVec(b.Grad.Data, og, a.Value.Data)
	}
}

// Scale returns s * a for a compile-time constant s.
func Scale(a *Var, s float64) *Var {
	tp := tapeOf(a)
	nd := tp.node(opGeneric, scaleBack, a, nil, nil)
	nd.f0 = s
	out := tp.result(nd, a.Value.Shape...)
	tensor.ScaleInto(out.Value, a.Value, s)
	return out
}

//mlperfvet:hotpath
func scaleBack(nd *node) { nd.a.Grad.AxpyInPlace(nd.f0, nd.out.Grad) }

// AddRowVec broadcasts a row vector b [m] over every row of a [n,m]
// (the standard bias add of a linear layer).
func AddRowVec(a, b *Var) *Var {
	if a.Value.Rank() != 2 || b.Value.Rank() != 1 || a.Value.Shape[1] != b.Value.Shape[0] {
		panic(fmt.Sprintf("autograd: AddRowVec shapes %v + %v", a.Value.Shape, b.Value.Shape))
	}
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	tp := tapeOf(a, b)
	nd := tp.node(opGeneric, addRowVecBack, a, b, nil)
	out := tp.result(nd, n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			out.Value.Data[i*m+j] = a.Value.Data[i*m+j] + b.Value.Data[j]
		}
	}
	return out
}

//mlperfvet:hotpath
func addRowVecBack(nd *node) {
	a, b, out := nd.a, nd.b, &nd.out
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	if a.tape != nil {
		a.Grad.AddInPlace(out.Grad)
	}
	if b.tape != nil {
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				b.Grad.Data[j] += out.Grad.Data[i*m+j]
			}
		}
	}
}

// MulColVec broadcasts a column vector a [n,1] across the columns of b
// [n,m]: out[i,j] = a[i,0] * b[i,j]. Used for attention-weighted sums.
func MulColVec(a, b *Var) *Var {
	if a.Value.Rank() != 2 || a.Value.Shape[1] != 1 || b.Value.Rank() != 2 || a.Value.Shape[0] != b.Value.Shape[0] {
		panic(fmt.Sprintf("autograd: MulColVec shapes %v * %v", a.Value.Shape, b.Value.Shape))
	}
	n, m := b.Value.Shape[0], b.Value.Shape[1]
	tp := tapeOf(a, b)
	nd := tp.node(opGeneric, mulColVecBack, a, b, nil)
	out := tp.result(nd, n, m)
	for i := 0; i < n; i++ {
		av := a.Value.Data[i]
		for j := 0; j < m; j++ {
			out.Value.Data[i*m+j] = av * b.Value.Data[i*m+j]
		}
	}
	return out
}

//mlperfvet:hotpath
func mulColVecBack(nd *node) {
	a, b, out := nd.a, nd.b, &nd.out
	n, m := b.Value.Shape[0], b.Value.Shape[1]
	if a.tape != nil {
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < m; j++ {
				s += out.Grad.Data[i*m+j] * b.Value.Data[i*m+j]
			}
			a.Grad.Data[i] += s
		}
	}
	if b.tape != nil {
		for i := 0; i < n; i++ {
			av := a.Value.Data[i]
			for j := 0; j < m; j++ {
				b.Grad.Data[i*m+j] += out.Grad.Data[i*m+j] * av
			}
		}
	}
}

// Reshape returns a with a new shape of the same size. Value flows through
// as a view (shared data); the gradient gets its own buffer and folds back.
func Reshape(a *Var, shape ...int) *Var {
	if numel(shape) != len(a.Value.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", a.Value.Shape, shape))
	}
	tp := tapeOf(a)
	nd := tp.node(opGeneric, reshapeBack, a, nil, nil)
	// The output value aliases a's data, so build the view by hand instead
	// of through result (which would give the slot its own buffer).
	v := &nd.out
	v.tape = tp
	if v.Value == nil || v.Value.Arena() || !sameShape(v.Value, shape) {
		if v.Value != nil && v.Value.Arena() {
			// Slot previously held an op's pooled output; return it.
			v.Value.Release()
		}
		v.Value = a.Value.Reshape(shape...)
	} else {
		v.Value.Data = a.Value.Data
	}
	tp.ensureTensor(&v.Grad, shape...)
	v.Grad.Zero()
	return v
}

//mlperfvet:hotpath
func reshapeBack(nd *node) {
	// Shapes differ but sizes match: fold the flat gradient back.
	tensor.AddVec(nd.a.Grad.Data, nd.out.Grad.Data)
}

// ConcatCols concatenates 2-D vars along columns: [n,m1],[n,m2],... → [n,Σm].
func ConcatCols(vs ...*Var) *Var {
	if len(vs) == 0 {
		panic("autograd: ConcatCols of nothing")
	}
	n := vs[0].Value.Shape[0]
	total := 0
	for _, v := range vs {
		if v.Value.Rank() != 2 || v.Value.Shape[0] != n {
			panic("autograd: ConcatCols shape mismatch")
		}
		total += v.Value.Shape[1]
	}
	tp := tapeOf(vs...)
	nd := tp.node(opGeneric, concatColsBack, nil, nil, nil)
	nd.vars = append(nd.vars[:0], vs...)
	out := tp.result(nd, n, total)
	dst, off := out.Value.Data, 0
	for _, v := range vs {
		m := v.Value.Shape[1]
		for i := 0; i < n; i++ {
			copy(dst[i*total+off:i*total+off+m], v.Value.Data[i*m:(i+1)*m])
		}
		off += m
	}
	return out
}

//mlperfvet:hotpath
func concatColsBack(nd *node) {
	out := &nd.out
	n, total := out.Value.Shape[0], out.Value.Shape[1]
	off := 0
	for _, v := range nd.vars {
		m := v.Value.Shape[1]
		if v.tape != nil {
			for i := 0; i < n; i++ {
				tensor.AddVec(v.Grad.Data[i*m:(i+1)*m], out.Grad.Data[i*total+off:i*total+off+m])
			}
		}
		off += m
	}
}

// ConcatRows concatenates 2-D vars along rows: [n1,m],[n2,m],... → [Σn,m].
func ConcatRows(vs ...*Var) *Var {
	if len(vs) == 0 {
		panic("autograd: ConcatRows of nothing")
	}
	m := vs[0].Value.Shape[1]
	total := 0
	for _, v := range vs {
		if v.Value.Rank() != 2 || v.Value.Shape[1] != m {
			panic("autograd: ConcatRows shape mismatch")
		}
		total += v.Value.Shape[0]
	}
	tp := tapeOf(vs...)
	nd := tp.node(opGeneric, concatRowsBack, nil, nil, nil)
	nd.vars = append(nd.vars[:0], vs...)
	out := tp.result(nd, total, m)
	off := 0
	for _, v := range vs {
		copy(out.Value.Data[off*m:], v.Value.Data)
		off += v.Value.Shape[0]
	}
	return out
}

//mlperfvet:hotpath
func concatRowsBack(nd *node) {
	out := &nd.out
	m := out.Value.Shape[1]
	off := 0
	for _, v := range nd.vars {
		n := v.Value.Shape[0]
		if v.tape != nil {
			tensor.AddVec(v.Grad.Data, out.Grad.Data[off*m:(off+n)*m])
		}
		off += n
	}
}

// SliceCols returns columns [lo,hi) of a 2-D var.
func SliceCols(a *Var, lo, hi int) *Var {
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	if lo < 0 || hi > m || lo >= hi {
		panic(fmt.Sprintf("autograd: SliceCols [%d,%d) of width %d", lo, hi, m))
	}
	w := hi - lo
	tp := tapeOf(a)
	nd := tp.node(opGeneric, sliceColsBack, a, nil, nil)
	nd.i0, nd.i1 = lo, hi
	out := tp.result(nd, n, w)
	for i := 0; i < n; i++ {
		copy(out.Value.Data[i*w:(i+1)*w], a.Value.Data[i*m+lo:i*m+lo+w])
	}
	return out
}

//mlperfvet:hotpath
func sliceColsBack(nd *node) {
	a, out := nd.a, &nd.out
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	lo := nd.i0
	w := nd.i1 - nd.i0
	for i := 0; i < n; i++ {
		tensor.AddVec(a.Grad.Data[i*m+lo:i*m+lo+w], out.Grad.Data[i*w:(i+1)*w])
	}
}

// SliceRows returns rows [lo,hi) of a 2-D var.
func SliceRows(a *Var, lo, hi int) *Var {
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	if lo < 0 || hi > n || lo >= hi {
		panic(fmt.Sprintf("autograd: SliceRows [%d,%d) of height %d", lo, hi, n))
	}
	h := hi - lo
	tp := tapeOf(a)
	nd := tp.node(opGeneric, sliceRowsBack, a, nil, nil)
	nd.i0, nd.i1 = lo, hi
	out := tp.result(nd, h, m)
	copy(out.Value.Data, a.Value.Data[lo*m:hi*m])
	return out
}

//mlperfvet:hotpath
func sliceRowsBack(nd *node) {
	m := nd.a.Value.Shape[1]
	tensor.AddVec(nd.a.Grad.Data[nd.i0*m:nd.i1*m], nd.out.Grad.Data)
}

// GatherRows selects rows of a 2-D var by index (with repetition allowed).
// Backward scatter-adds, so it doubles as the embedding-lookup primitive.
func GatherRows(a *Var, idx []int) *Var {
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	tp := tapeOf(a)
	nd := tp.node(opGeneric, gatherRowsBack, a, nil, nil)
	nd.idx = append(nd.idx[:0], idx...)
	out := tp.result(nd, len(idx), m)
	dst, src := out.Value.Data, a.Value.Data
	for i, id := range idx {
		if id < 0 || id >= n {
			panic(fmt.Sprintf("autograd: GatherRows index %d out of %d", id, n))
		}
		copy(dst[i*m:(i+1)*m], src[id*m:(id+1)*m])
	}
	return out
}

// gatherRowsBack adds upstream row i into row idx[i] in idx order, so a
// repeated id takes its rows' contributions in the order the forward
// gathered them.
//
//mlperfvet:hotpath
func gatherRowsBack(nd *node) {
	a, out := nd.a, &nd.out
	m := a.Value.Shape[1]
	for i, id := range nd.idx {
		tensor.AddVec(a.Grad.Data[id*m:(id+1)*m], out.Grad.Data[i*m:(i+1)*m])
	}
}
