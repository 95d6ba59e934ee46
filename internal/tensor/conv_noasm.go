//go:build !amd64

package tensor

func convPassesAVX2(r *convRun) {
	panic("tensor: assembly convolution kernel unavailable on this architecture")
}
