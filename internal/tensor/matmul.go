package tensor

import (
	"fmt"

	"repro/internal/arena"
)

// The dense-product entry points, float64 (MatMul, MatMulTransA,
// MatMulTransB and their *Into forms) and float32 (MatMulF32*Into, the
// compute core of the reduced-precision regimes: F32 operands, or
// bf16-rounded operands under BF16; either way products and sums stay in
// float32, the paper's §2.2.3 "fp32 accumulation"). Each is a shape check
// and one call into the generic engine in gemm.go. The matMul*Rows
// functions are the retained naive reference kernels, one generic set
// (MatMulRows is the float64 a·b one by its public name, for the kernel
// benchmarks): the engine dispatches to them for tiny shapes, and the
// parity tests in gemm_test.go hold the engine to their bits.
//
// Semantics (shared by reference and engine, in both element types):
// every product term is computed and accumulated in ascending-k order — a
// zero operand contributes an exact ±0·x term rather than being skipped,
// so NaN/Inf in the other operand propagate per IEEE 754. (The kernels
// before the engine skipped a == 0 terms, silently suppressing
// 0·Inf = NaN and, in principle, flipping signed zeros; on finite inputs
// the bits are unchanged — see gemm.go.) The worker count, block size and
// dispatch path never change the bits.

// gemmDims checks the operand shapes of one dense product (a and b as
// stored for the variant) and returns its logical dims: C[n,m] = A[n,k]·B[k,m].
func gemmDims(op string, v gemmVariant, a, b []int) (n, k, m int) {
	if len(a) != 2 || len(b) != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 operands, got %v x %v", op, a, b))
	}
	n, k = a[0], a[1]
	k2, m := b[0], b[1]
	switch v {
	case gemmTA:
		n, k = k, n
	case gemmTB:
		k2, m = m, k2
	}
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v x %v", op, a, b))
	}
	return n, k, m
}

// gemmDimsInto is gemmDims for a caller-supplied output, which must be [n, m].
func gemmDimsInto(op string, v gemmVariant, c, a, b []int) (n, k, m int) {
	n, k, m = gemmDims(op, v, a, b)
	if len(c) != 2 || c[0] != n || c[1] != m {
		panic(fmt.Sprintf("tensor: %s output shape %v, want [%d %d] for operands %v x %v", op, c, n, m, a, b))
	}
	return n, k, m
}

// MatMul returns the matrix product a·b for 2-D tensors a [n,k] and
// b [k,m].
func MatMul(a, b *Tensor) *Tensor {
	n, _, m := gemmDims("MatMul", gemmNN, a.Shape, b.Shape)
	c := New(n, m)
	MatMulInto(c, a, b)
	return c
}

// MatMulTransA returns aᵀ·b for a [k,n] and b [k,m], producing [n,m].
// Used by backward passes: dW = xᵀ·dy.
func MatMulTransA(a, b *Tensor) *Tensor {
	n, _, m := gemmDims("MatMulTransA", gemmTA, a.Shape, b.Shape)
	c := New(n, m)
	MatMulTransAInto(c, a, b)
	return c
}

// MatMulTransB returns a·bᵀ for a [n,k] and b [m,k], producing [n,m].
// Used by backward passes: dx = dy·Wᵀ.
func MatMulTransB(a, b *Tensor) *Tensor {
	n, _, m := gemmDims("MatMulTransB", gemmTB, a.Shape, b.Shape)
	c := New(n, m)
	MatMulTransBInto(c, a, b)
	return c
}

// MatMulInto writes a·b into c, which must be [n, m]. The output buffer is
// fully overwritten. c must not alias a or b.
func MatMulInto(c, a, b *Tensor) {
	n, k, m := gemmDimsInto("MatMulInto", gemmNN, c.Shape, a.Shape, b.Shape)
	gemmInto(gemmPack, gemmNN, c.Data, a.Data, b.Data, n, k, m)
}

// MatMulTransAInto writes aᵀ·b into c, which must be [n, m]. c must not
// alias a or b.
func MatMulTransAInto(c, a, b *Tensor) {
	n, k, m := gemmDimsInto("MatMulTransAInto", gemmTA, c.Shape, a.Shape, b.Shape)
	gemmInto(gemmPack, gemmTA, c.Data, a.Data, b.Data, n, k, m)
}

// MatMulTransBInto writes a·bᵀ into c, which must be [n, m]. c must not
// alias a or b.
func MatMulTransBInto(c, a, b *Tensor) {
	n, k, m := gemmDimsInto("MatMulTransBInto", gemmTB, c.Shape, a.Shape, b.Shape)
	gemmInto(gemmPack, gemmTB, c.Data, a.Data, b.Data, n, k, m)
}

// MatMulF32Into is MatMulInto in float32.
func MatMulF32Into(c, a, b *F32) {
	n, k, m := gemmDimsInto("MatMulF32Into", gemmNN, c.Shape, a.Shape, b.Shape)
	gemmInto(gemmPack32, gemmNN, c.Data, a.Data, b.Data, n, k, m)
}

// MatMulF32TransAInto is MatMulTransAInto in float32 (the dW = xᵀ·dy
// backward product).
func MatMulF32TransAInto(c, a, b *F32) {
	n, k, m := gemmDimsInto("MatMulF32TransAInto", gemmTA, c.Shape, a.Shape, b.Shape)
	gemmInto(gemmPack32, gemmTA, c.Data, a.Data, b.Data, n, k, m)
}

// MatMulF32TransBInto is MatMulTransBInto in float32 (the dx = dy·Wᵀ
// backward product).
func MatMulF32TransBInto(c, a, b *F32) {
	n, k, m := gemmDimsInto("MatMulF32TransBInto", gemmTB, c.Shape, a.Shape, b.Shape)
	gemmInto(gemmPack32, gemmTB, c.Data, a.Data, b.Data, n, k, m)
}

// MatMulRows computes output rows [lo, hi) of c = a·b for a [n,k] and
// b [k,m] with the naive reference kernel.
func MatMulRows(c, a, b *Tensor, lo, hi int) {
	matMulRows(c.Data, a.Data, b.Data, a.Shape[1], b.Shape[1], lo, hi)
}

// matMulRows computes output rows [lo, hi) of the dense [·,m] product
// c = a·b, zeroing them first — the naive (i,k,j) reference kernel,
// row-sharded. Each row is owned by exactly one range and accumulates over
// k in ascending order, so any range split produces the serial bits. The
// blocked engine is held bit-identical to this kernel on finite inputs
// (gemm_test.go).
//
//mlperfvet:hotpath
func matMulRows[T arena.Elem](c, a, b []T, k, m, lo, hi int) {
	for i := lo; i < hi; i++ {
		ar := a[i*k : (i+1)*k]
		cr := c[i*m : (i+1)*m]
		clear(cr)
		for p := 0; p < k; p++ {
			av := ar[p]
			br := b[p*m : (p+1)*m]
			for j, bv := range br {
				cr[j] += av * bv
			}
		}
	}
}

// matMulTransARows computes output rows [lo, hi) of c = aᵀ·b for a stored
// [k,n], zeroing them first — the naive reference kernel for the
// transposed-A variant. Accumulation over p replays the serial order per
// element.
//
//mlperfvet:hotpath
func matMulTransARows[T arena.Elem](c, a, b []T, k, n, m, lo, hi int) {
	clear(c[lo*m : hi*m])
	for p := 0; p < k; p++ {
		ar := a[p*n : (p+1)*n]
		br := b[p*m : (p+1)*m]
		for i := lo; i < hi; i++ {
			av := ar[i]
			cr := c[i*m : (i+1)*m]
			for j, bv := range br {
				cr[j] += av * bv
			}
		}
	}
}

// matMulTransBRows computes output rows [lo, hi) of c = a·bᵀ for b stored
// [m,k] — the naive reference kernel for the transposed-B variant. Every
// output element is fully overwritten, so no zeroing is needed.
//
//mlperfvet:hotpath
func matMulTransBRows[T arena.Elem](c, a, b []T, k, m, lo, hi int) {
	for i := lo; i < hi; i++ {
		ar := a[i*k : (i+1)*k]
		cr := c[i*m : (i+1)*m]
		for j := 0; j < m; j++ {
			br := b[j*k : (j+1)*k]
			var s T
			for p := 0; p < k; p++ {
				s += ar[p] * br[p]
			}
			cr[j] = s
		}
	}
}

// Transpose2D returns the transpose of a 2-D tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose2D requires rank 2")
	}
	n, m := a.Shape[0], a.Shape[1]
	c := New(m, n)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			c.Data[j*n+i] = a.Data[i*m+j]
		}
	}
	return c
}
