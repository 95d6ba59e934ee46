// Package tensor implements dense row-major float64 tensors and the compute
// kernels (matmul, convolution, pooling) that the autograd and nn packages
// build on. It is the lowest substrate of the MLPerf reproduction: the role
// PyTorch/TensorFlow dense kernels play for the paper's reference
// implementations.
package tensor

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/arena"
)

// Tensor is a dense row-major array of float64 with an explicit shape.
// The zero value is not usable; construct with New, Zeros, FromSlice, or
// (for pooled buffers) NewIn.
type Tensor struct {
	Shape []int
	Data  []float64

	// src and raw track arena-backed tensors (NewIn): src is the allocator
	// the buffer came from and raw the original class-capacity slice that
	// Release returns to it. Both are nil for ordinary tensors.
	src arena.Allocator
	raw []float64
}

// numel returns the product of dims, panicking on negative sizes.
// The panic path formats a copy of the shape so that numel does not leak
// its parameter — keeping it non-leaking lets callers' variadic shape
// slices stay on the stack, which the zero-allocation steady-state step
// depends on.
func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panicNegativeDim(append([]int(nil), shape...))
		}
		n *= d
	}
	return n
}

//go:noinline
func panicNegativeDim(shape []int) {
	panic(fmt.Sprintf("tensor: negative dimension %v", shape))
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, numel(shape))}
}

// NewIn returns a zero-filled tensor whose data buffer is drawn from the
// given arena allocator. Data is sliced with a hard capacity bound
// (Data[:n:n]), so an append that would overrun into a neighboring pooled
// buffer reallocates — or an index overrun panics — instead of silently
// corrupting another tensor. The tensor must be returned to the arena with
// Release once it is no longer referenced.
func NewIn(a arena.Allocator, shape ...int) *Tensor {
	n := numel(shape)
	buf := a.Get(n)
	return &Tensor{
		Shape: append([]int(nil), shape...),
		Data:  buf[:n:n],
		src:   a,
		raw:   buf, //mlperfvet:owns — the returned Tensor owns buf until Release
	}
}

// Arena reports whether the tensor's buffer is arena-backed (and not yet
// released).
func (t *Tensor) Arena() bool { return t.raw != nil }

// Resize gives t the shape, keeping its buffer, when the buffer holds that
// many elements: any size up to an arena-backed tensor's pooled capacity
// (Data keeps its hard capacity bound), or exactly the current size of any
// other tensor. It reports whether it did; the contents are unspecified.
// A tape's tensors shrink this way for an epoch's ragged last batch and
// grow back for the next full one without allocating.
func (t *Tensor) Resize(shape ...int) bool {
	n := numel(shape)
	switch {
	case t.raw != nil && n <= cap(t.raw):
		t.Data = t.raw[:n:n]
	case t.raw == nil && n == len(t.Data):
	default:
		return false
	}
	t.Shape = append(t.Shape[:0], shape...)
	return true
}

// Release returns an arena-backed tensor's buffer to its arena. The tensor
// must not be used afterwards. It panics on non-arena tensors and on a
// second Release (the double-free that silent pooling bugs are made of).
func (t *Tensor) Release() {
	if t.src == nil {
		panic("tensor: Release of non-arena tensor")
	}
	if t.raw == nil {
		panic("tensor: double Release")
	}
	t.src.Put(t.raw)
	t.raw = nil
	t.Data = nil
}

// Ones returns a tensor filled with 1.
func Ones(shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = 1
	}
	return t
}

// Full returns a tensor filled with v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// FromSlice wraps data (not copied) in a tensor of the given shape.
// It panics if len(data) does not match the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	if len(data) != numel(shape) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Randn fills a new tensor with Gaussian samples scaled by std.
func Randn(r *RNG, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = r.Norm() * std
	}
	return t
}

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if o.Shape[i] != d {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a copy-free view with a new shape of equal size. Like
// offset's, its panic formats a clone of shape, so shape stays on the
// caller's stack.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	if numel(shape) != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, slices.Clone(shape)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

// offset is the flat position of a multi-index. Its panics format a clone
// of idx: formatting idx itself would leak it, and every caller's variadic
// index slice would move to the heap, one allocation per At or Set.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index %v for shape %v", slices.Clone(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", slices.Clone(idx), t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Zero sets every element to +0. It is clear, which the runtime lowers to
// its memclr, and not Fill(0), whose store loop the compiler does not
// turn into one: the tape zeroes a gradient buffer per node per pass.
func (t *Tensor) Zero() { clear(t.Data) }

// Copy copies o's data into t. Shapes must match in size.
func (t *Tensor) Copy(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Copy size mismatch")
	}
	copy(t.Data, o.Data)
}

// AddInPlace adds o to t elementwise.
func (t *Tensor) AddInPlace(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: AddInPlace size mismatch")
	}
	AddVec(t.Data, o.Data)
}

// AddVec adds src to dst elementwise; the slices must be the same length.
// On amd64 with AVX2 the adds run four lanes at a time (vecmat_amd64.s);
// a lane-wise VADDPD is the scalar add of each element, so both backends
// write the same bits. It is the pass the tape makes around every GEMM:
// scratch into gradient, gradient into gradient, bias into rows.
//
//mlperfvet:hotpath
func AddVec(dst, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: AddVec size mismatch")
	}
	if gemmUseAsm && len(dst) > 0 {
		addVecAVX2(&dst[0], &src[0], len(dst))
		return
	}
	for i, v := range src {
		dst[i] += v
	}
}

// ScaleVec writes dst[i] = s·src[i]; the slices must be the same length
// and must not overlap unless they are the same slice. Like AddVec it runs
// four lanes to a VMULPD on amd64 with AVX2, and a lane-wise multiply is
// the scalar multiply of each element, so both backends write the same
// bits. It is how a microbatch's gradient reaches its reduction row
// (autograd.FlattenGradsScaled).
//
//mlperfvet:hotpath
func ScaleVec(dst, src []float64, s float64) {
	if len(dst) != len(src) {
		panic("tensor: ScaleVec size mismatch")
	}
	if gemmUseAsm && len(dst) > 0 {
		scaleVecAVX2(&dst[0], &src[0], len(dst), s)
		return
	}
	for i, v := range src {
		dst[i] = s * v
	}
}

// MulAddVec performs dst[i] += a[i]·b[i], the product rounded before the
// add (never fused); the three slices must be the same length. On amd64
// with AVX2 four elements go to a VMULPD then a VADDPD and the loop below
// takes the rest, each lane the scalar sequence, so both backends write
// the same bits. It is the backward of the Hadamard product
// (autograd.Mul).
//
//mlperfvet:hotpath
func MulAddVec(dst, a, b []float64) {
	n := len(dst)
	if len(a) != n || len(b) != n {
		panic("tensor: MulAddVec size mismatch")
	}
	if gemmUseAsm && n >= 4 {
		mulAddVecAVX2(&dst[0], &a[0], &b[0], n)
		dst, a, b = dst[n&^3:], a[n&^3:], b[n&^3:]
	}
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] += a[i] * b[i]
	}
}

// ReLUVec writes dst[i] = src[i] where src[i] > 0 and +0 everywhere else
// (negatives, −0 and NaN), with no branch on the data: the loop keeps
// src's bits or zero by a conditional move, and the AVX2 body
// (vecmat_amd64.s) ANDs each lane with its compare mask, four elements at
// a time. The slices must be the same length.
//
//mlperfvet:hotpath
func ReLUVec(dst, src []float64) {
	n := len(dst)
	if len(src) != n {
		panic("tensor: ReLUVec size mismatch")
	}
	if gemmUseAsm && n >= 4 {
		reluVecAVX2(&dst[0], &src[0], n)
		dst, src = dst[n&^3:], src[n&^3:]
	}
	dst = dst[:len(src)]
	for i, v := range src {
		// Both candidates computed before the compare: the form the
		// compiler turns into a CMOV rather than a branch.
		b, r := math.Float64bits(v), uint64(0)
		if v > 0 {
			r = b
		}
		dst[i] = math.Float64frombits(r)
	}
}

// ReLUBackVec is the backward of ReLUVec: g[i] += og[i] where the saved
// input x[i] > 0, and g[i] keeps its exact bits everywhere else (a select,
// not an add of +0, so a −0 or a NaN already in g survives). The sum is
// formed for every element and kept by a conditional move, or by a
// VBLENDVPD on the compare mask in the AVX2 body, so a sign that changes
// from one element to the next costs no mispredicted branch. The three
// slices must be the same length.
//
//mlperfvet:hotpath
func ReLUBackVec(g, og, x []float64) {
	n := len(g)
	if len(og) != n || len(x) != n {
		panic("tensor: ReLUBackVec size mismatch")
	}
	if gemmUseAsm && n >= 4 {
		reluBackVecAVX2(&g[0], &og[0], &x[0], n)
		g, og, x = g[n&^3:], og[n&^3:], x[n&^3:]
	}
	og, x = og[:len(g)], x[:len(g)]
	for i, gi := range g {
		r, s := math.Float64bits(gi), math.Float64bits(gi+og[i])
		if x[i] > 0 {
			r = s
		}
		g[i] = math.Float64frombits(r)
	}
}

// AxpyInPlace performs t += alpha * o.
func (t *Tensor) AxpyInPlace(alpha float64, o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: AxpyInPlace size mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += alpha * v
	}
}

// ScaleInPlace multiplies every element by s.
func (t *Tensor) ScaleInPlace(s float64) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AddInto writes a + b into dst. All three must have equal sizes.
func AddInto(dst, a, b *Tensor) {
	if len(a.Data) != len(b.Data) || len(dst.Data) != len(a.Data) {
		panic("tensor: Add size mismatch")
	}
	for i := range a.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// MulInto writes the Hadamard product a * b into dst.
func MulInto(dst, a, b *Tensor) {
	if len(a.Data) != len(b.Data) || len(dst.Data) != len(a.Data) {
		panic("tensor: Mul size mismatch")
	}
	for i := range a.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
}

// ScaleInto writes s * a into dst.
func ScaleInto(dst, a *Tensor, s float64) {
	if len(dst.Data) != len(a.Data) {
		panic("tensor: Scale size mismatch")
	}
	ScaleVec(dst.Data, a.Data, s)
}

// ApplyInto writes f applied elementwise to a into dst.
func ApplyInto(dst, a *Tensor, f func(float64) float64) {
	if len(dst.Data) != len(a.Data) {
		panic("tensor: Apply size mismatch")
	}
	for i, v := range a.Data {
		dst.Data[i] = f(v)
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the flat index of the maximum element.
func (t *Tensor) ArgMax() int {
	if len(t.Data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.Data[0], 0
	for i, v := range t.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// ArgMaxRows returns, for a 2-D tensor, the argmax of each row.
func (t *Tensor) ArgMaxRows() []int {
	return t.AppendArgMaxRows(nil)
}

// AppendArgMaxRows is ArgMaxRows appending to dst, so a caller that keeps
// dst's capacity across calls allocates nothing.
func (t *Tensor) AppendArgMaxRows(dst []int) []int {
	if t.Rank() != 2 {
		panic("tensor: ArgMaxRows requires rank 2")
	}
	n, m := t.Shape[0], t.Shape[1]
	for i := 0; i < n; i++ {
		row := t.Data[i*m : (i+1)*m]
		best, bi := row[0], 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		dst = append(dst, bi)
	}
	return dst
}

// Norm2 returns the L2 norm of all elements.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equal reports elementwise equality within tolerance eps.
func Equal(a, b *Tensor, eps float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > eps {
			return false
		}
	}
	return true
}

// String renders a compact description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v(n=%d)", t.Shape, len(t.Data))
}
