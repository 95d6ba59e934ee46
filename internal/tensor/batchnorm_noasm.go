//go:build !amd64

package tensor

func bnNormAVX2(out, x *float64, n, c, plane int, mean, invStd, gamma, beta *float64) {
	panic("tensor: assembly BatchNorm kernel unavailable on this architecture")
}

func bnDxAVX2(dx, dy, x *float64, n, c, plane int, mean, invStd, gamma, sumDy, sumDyXhat *float64, m float64) {
	panic("tensor: assembly BatchNorm kernel unavailable on this architecture")
}

func bnSumAVX2(sum, x *float64, n, c, plane, gA, gB int) {
	panic("tensor: assembly BatchNorm kernel unavailable on this architecture")
}

func bnSqDevAVX2(sum, x *float64, n, c, plane, gA, gB int, mean *float64) {
	panic("tensor: assembly BatchNorm kernel unavailable on this architecture")
}

func bnGradSumsAVX2(sumDy, sumDyXhat, dy, x *float64, n, c, plane, gA, gB int, mean, invStd *float64) {
	panic("tensor: assembly BatchNorm kernel unavailable on this architecture")
}
