package tensor

import "math"

// VecMat writes the vector-matrix product dst = aᵀ·X for a short, strided
// vector a and a strided row-major matrix X:
//
//	dst[c] = Σ_t a[t·as] · x[t·xs + c],   t = 0 … terms−1,  c = 0 … len(dst)−1
//
// Every dst[c] is summed in ascending t from +0 with a separate multiply
// and add per term (never FMA), so it carries the bits of the naive
// MatMul*Rows kernels whichever backend runs: the lanes of the AVX2 kernel
// (vecmat_amd64.s) are distinct output columns, and each lane performs the
// scalar sequence. It is the row primitive of autograd.Attention, whose
// six products per (sample, head) are all of this form over column ranges
// of [rows, d] matrices: too small (at most 9×12×9) and too strided for
// the packed GEMM engine. dst must not overlap a or x.
//
//mlperfvet:hotpath
func VecMat(dst, a []float64, as int, x []float64, xs, terms int) {
	n := len(dst)
	if n == 0 {
		return
	}
	if terms <= 0 {
		for c := range dst {
			dst[c] = 0
		}
		return
	}
	// Bounds proof for both backends: the last element each operand reads.
	_, _ = a[(terms-1)*as], x[(terms-1)*xs+n-1]
	if gemmUseAsm {
		vecMatAVX2(&dst[0], n, &a[0], as, &x[0], xs, terms)
		return
	}
	vecMatGo(dst, a, as, x, xs, terms)
}

// vecMatGo is the portable kernel: four output columns at a time in four
// register accumulators, then the remaining columns one by one.
//
//mlperfvet:hotpath
func vecMatGo(dst, a []float64, as int, x []float64, xs, terms int) {
	n := len(dst)
	c := 0
	for ; c+4 <= n; c += 4 {
		var s0, s1, s2, s3 float64
		for t := 0; t < terms; t++ {
			av := a[t*as]
			xr := x[t*xs+c:][:4]
			s0 += av * xr[0]
			s1 += av * xr[1]
			s2 += av * xr[2]
			s3 += av * xr[3]
		}
		d := dst[c:][:4]
		d[0], d[1], d[2], d[3] = s0, s1, s2, s3
	}
	for ; c < n; c++ {
		s := 0.0
		for t := 0; t < terms; t++ {
			s += a[t*as] * x[t*xs+c]
		}
		dst[c] = s
	}
}

// AdamCoef holds the scalars of one Adam step, the same for every element
// of every parameter: what opt.Adam computes once per Step and AdamUpdate
// applies. The AVX2 kernel reads the fields by offset, in this order
// (vecmat_amd64.go checks the offsets at compile time).
type AdamCoef struct {
	WeightDecay          float64 // g = grad + WeightDecay·val
	Beta1, OneMinusBeta1 float64 // m = Beta1·m + OneMinusBeta1·g
	Beta2, OneMinusBeta2 float64 // v = Beta2·v + (OneMinusBeta2·g)·g
	BiasCorr1, BiasCorr2 float64 // 1 − βᵗ
	LR, Eps              float64
}

// AdamUpdate applies one Adam step to one parameter: for every element,
//
//	g   = grad + WeightDecay·val
//	m   = Beta1·m + OneMinusBeta1·g
//	v   = Beta2·v + (OneMinusBeta2·g)·g
//	val = val − (LR·(m/BiasCorr1)) / (sqrt(v/BiasCorr2) + Eps)
//
// with every operation rounded on its own, in this order. On amd64 with
// AVX2 four elements go to a pass (adamStepAVX2) and the loop below takes
// the rest; multiply, add, subtract, divide and square root are each
// correctly rounded in both forms and nothing is fused, so a lane holds
// the bits the loop would have written. The four slices must be the same
// length and must not overlap.
//
//mlperfvet:hotpath
func AdamUpdate(val, grad, m, v []float64, c *AdamCoef) {
	n := len(val)
	if len(grad) != n || len(m) != n || len(v) != n {
		panic("tensor: AdamUpdate size mismatch")
	}
	i := 0
	if gemmUseAsm && n >= 4 {
		adamStepAVX2(&val[0], &grad[0], &m[0], &v[0], n, c)
		i = n &^ 3
	}
	for ; i < n; i++ {
		g := grad[i] + c.WeightDecay*val[i]
		mi := c.Beta1*m[i] + c.OneMinusBeta1*g
		vi := c.Beta2*v[i] + c.OneMinusBeta2*g*g
		m[i], v[i] = mi, vi
		val[i] -= c.LR * (mi / c.BiasCorr1) / (math.Sqrt(vi/c.BiasCorr2) + c.Eps)
	}
}
