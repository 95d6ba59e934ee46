package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapesAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 || x.Rank() != 3 || x.Shape[1] != 3 {
		t.Fatalf("bad shape bookkeeping: %v", x)
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3)
	x.Set(7.5, 1, 2)
	if x.At(1, 2) != 7.5 {
		t.Fatalf("At/Set round trip failed")
	}
	if x.Data[1*3+2] != 7.5 {
		t.Fatalf("row-major layout broken")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

// At and Set index through a variadic slice; it stays on the caller's
// stack, so element-wise loops (the dataset generators) allocate nothing.
// The panics still name the index and the shape.
func TestAtSetAllocsZero(t *testing.T) {
	x := New(2, 3, 4)
	if n := testing.AllocsPerRun(100, func() { x.Set(x.At(1, 2, 3)+1, 1, 2, 3) }); n != 0 {
		t.Errorf("At+Set allocate %v times per call, want 0", n)
	}
	for _, c := range []struct {
		idx  []int
		want string
	}{
		{[]int{1, 3, 0}, "tensor: index [1 3 0] out of range for shape [2 3 4]"},
		{[]int{1, 2}, "tensor: index [1 2] for shape [2 3 4]"},
	} {
		func() {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("At(%v) panicked with %v, want %q", c.idx, got, c.want)
				}
			}()
			x.At(c.idx...)
		}()
	}
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Reshape(4)
	y.Data[0] = 9
	if x.At(0, 0) != 9 {
		t.Fatal("Reshape must share backing data")
	}
}

// addNew returns a + b in a fresh tensor.
func addNew(a, b *Tensor) *Tensor {
	c := New(a.Shape...)
	AddInto(c, a, b)
	return c
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	got := New(3)
	if AddInto(got, a, b); got.Data[0] != 5 || got.Data[2] != 9 {
		t.Fatalf("Add: %v", got.Data)
	}
	if MulInto(got, a, b); got.Data[1] != 10 {
		t.Fatalf("Mul: %v", got.Data)
	}
	if ScaleInto(got, a, 2); got.Data[2] != 6 {
		t.Fatalf("Scale: %v", got.Data)
	}
	if ApplyInto(got, a, func(v float64) float64 { return v * v }); got.Data[2] != 9 {
		t.Fatalf("Apply: %v", got.Data)
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{1, -2, 5, 0}, 4)
	if x.Sum() != 4 || x.Max() != 5 || x.ArgMax() != 2 {
		t.Fatalf("reductions wrong: sum=%v max=%v argmax=%v", x.Sum(), x.Max(), x.ArgMax())
	}
}

func TestArgMaxRows(t *testing.T) {
	x := FromSlice([]float64{1, 3, 2, 9, 0, 0}, 2, 3)
	got := x.ArgMaxRows()
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRows: %v", got)
	}
}

// matmulNaive is an intentionally simple reference implementation.
func matmulNaive(a, b *Tensor) *Tensor {
	n, k, m := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			c.Set(s, i, j)
		}
	}
	return c
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := NewRNG(1)
	for trial := 0; trial < 20; trial++ {
		n, k, m := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := Randn(rng, 1, n, k)
		b := Randn(rng, 1, k, m)
		if !Equal(MatMul(a, b), matmulNaive(a, b), 1e-12) {
			t.Fatalf("MatMul mismatch at %dx%dx%d", n, k, m)
		}
	}
}

func TestMatMulTransVariants(t *testing.T) {
	rng := NewRNG(2)
	a := Randn(rng, 1, 4, 3)
	b := Randn(rng, 1, 4, 5)
	// aᵀ·b via explicit transpose
	want := matmulNaive(Transpose2D(a), b)
	if !Equal(MatMulTransA(a, b), want, 1e-12) {
		t.Fatal("MatMulTransA mismatch")
	}
	c := Randn(rng, 1, 6, 3)
	d := Randn(rng, 1, 5, 3)
	want2 := matmulNaive(c, Transpose2D(d))
	if !Equal(MatMulTransB(c, d), want2, 1e-12) {
		t.Fatal("MatMulTransB mismatch")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestTranspose2D(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := Transpose2D(x)
	if y.Shape[0] != 3 || y.Shape[1] != 2 || y.At(2, 1) != 6 || y.At(0, 1) != 4 {
		t.Fatalf("Transpose2D wrong: %v %v", y.Shape, y.Data)
	}
}

// convNaive computes convolution by direct definition for verification.
func convNaive(x, w, b *Tensor, stride, pad int) *Tensor {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	f, _, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	ho, wo := ConvOut(h, kh, stride, pad), ConvOut(wd, kw, stride, pad)
	out := New(n, f, ho, wo)
	for in := 0; in < n; in++ {
		for of := 0; of < f; of++ {
			for oy := 0; oy < ho; oy++ {
				for ox := 0; ox < wo; ox++ {
					s := 0.0
					if b != nil {
						s = b.Data[of]
					}
					for ic := 0; ic < c; ic++ {
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
								if iy < 0 || iy >= h || ix < 0 || ix >= wd {
									continue
								}
								s += x.At(in, ic, iy, ix) * w.At(of, ic, ky, kx)
							}
						}
					}
					out.Set(s, in, of, oy, ox)
				}
			}
		}
	}
	return out
}

func TestConv2DAgainstNaive(t *testing.T) {
	rng := NewRNG(3)
	cases := []struct{ n, c, h, w, f, k, s, p int }{
		{1, 1, 5, 5, 1, 3, 1, 1},
		{2, 3, 6, 6, 4, 3, 1, 1},
		{2, 2, 7, 7, 3, 3, 2, 1},
		{1, 2, 5, 5, 2, 1, 1, 0},
		{1, 1, 4, 4, 1, 2, 2, 0},
	}
	for _, tc := range cases {
		x := Randn(rng, 1, tc.n, tc.c, tc.h, tc.w)
		w := Randn(rng, 1, tc.f, tc.c, tc.k, tc.k)
		b := Randn(rng, 1, tc.f)
		if !Equal(Conv2D(x, w, b, tc.s, tc.p), convNaive(x, w, b, tc.s, tc.p), 1e-12) {
			t.Fatalf("Conv2D mismatch for %+v", tc)
		}
		if !Equal(Conv2D(x, w, nil, tc.s, tc.p), convNaive(x, w, nil, tc.s, tc.p), 1e-12) {
			t.Fatalf("Conv2D no-bias mismatch for %+v", tc)
		}
	}
}

func TestGlobalAvgPool2D(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	y := New(1, 2)
	GlobalAvgPool2DInto(y, x)
	if y.At(0, 0) != 2.5 || y.At(0, 1) != 25 {
		t.Fatalf("GlobalAvgPool2D: %v", y.Data)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	c1 := r.Split(1)
	c2 := r.Split(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children with different labels should differ")
	}
	// Same label twice from the same parent state gives the same stream.
	r2 := NewRNG(7)
	d1 := r2.Split(1)
	r3 := NewRNG(7)
	d2 := r3.Split(1)
	for i := 0; i < 10; i++ {
		if d1.Uint64() != d2.Uint64() {
			t.Fatal("split must be deterministic")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(11)
	n := 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 || math.Abs(variance-1) > 0.05 {
		t.Fatalf("Norm moments off: mean=%v var=%v", mean, variance)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(13)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

// Property: (a+b)+c == a+(b+c) elementwise within fp tolerance.
func TestAddAssociativityProperty(t *testing.T) {
	rng := NewRNG(17)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		n := 1 + r.Intn(16)
		a, b, c := Randn(r, 1, n), Randn(r, 1, n), Randn(r, 1, n)
		return Equal(addNew(addNew(a, b), c), addNew(a, addNew(b, c)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A(B+C) == AB + AC.
func TestMatMulDistributivityProperty(t *testing.T) {
	rng := NewRNG(19)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		n, k, m := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := Randn(r, 1, n, k)
		b := Randn(r, 1, k, m)
		c := Randn(r, 1, k, m)
		left := MatMul(a, addNew(b, c))
		right := addNew(MatMul(a, b), MatMul(a, c))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution.
func TestTransposeInvolutionProperty(t *testing.T) {
	rng := NewRNG(23)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		n, m := 1+r.Intn(8), 1+r.Intn(8)
		a := Randn(r, 1, n, m)
		return Equal(Transpose2D(Transpose2D(a)), a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: conv with 1x1 kernel, stride 1, no pad is a channel mixing
// matmul; output spatial dims match input.
func TestConvOutProperty(t *testing.T) {
	f := func(inRaw, kRaw, sRaw, pRaw uint8) bool {
		in := int(inRaw%32) + 1
		k := int(kRaw%5) + 1
		s := int(sRaw%3) + 1
		p := int(pRaw % 3)
		if k > in+2*p {
			return true // invalid geometry, skip
		}
		out := ConvOut(in, k, s, p)
		// Last window must fit: (out-1)*s + k <= in + 2p
		return out >= 1 && (out-1)*s+k <= in+2*p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNorm2(t *testing.T) {
	x := FromSlice([]float64{3, 4}, 2)
	if math.Abs(x.Norm2()-5) > 1e-12 {
		t.Fatalf("Norm2: %v", x.Norm2())
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Fatal("Clone must not share data")
	}
}
