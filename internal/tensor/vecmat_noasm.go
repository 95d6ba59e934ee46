//go:build !amd64

package tensor

func vecMatAVX2(dst *float64, n int, a *float64, as int, x *float64, xs, terms int) {
	panic("tensor: assembly VecMat kernel unavailable on this architecture")
}

func addVecAVX2(dst, src *float64, n int) {
	panic("tensor: assembly AddInPlace kernel unavailable on this architecture")
}

func scaleVecAVX2(dst, src *float64, n int, s float64) {
	panic("tensor: assembly ScaleVec kernel unavailable on this architecture")
}

func mulAddVecAVX2(dst, a, b *float64, n int) {
	panic("tensor: assembly MulAddVec kernel unavailable on this architecture")
}

func reluVecAVX2(dst, src *float64, n int) {
	panic("tensor: assembly ReLUVec kernel unavailable on this architecture")
}

func reluBackVecAVX2(grad, og, x *float64, n int) {
	panic("tensor: assembly ReLUBackVec kernel unavailable on this architecture")
}

func adamStepAVX2(val, grad, m, v *float64, n int, c *AdamCoef) {
	panic("tensor: assembly Adam kernel unavailable on this architecture")
}
