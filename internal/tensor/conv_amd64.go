//go:build amd64

package tensor

import "unsafe"

// convPassesAVX2 is convRunPasses' AVX2 body (conv_amd64.s), gated by the
// shared gemmUseAsm flag: every pass of r, six YMM accumulators of four
// float64 lanes each, a VBROADCASTSD of the broadcast operand per position
// and term, then a VMULPD and a VADDPD per lane group (never FMA), so every
// lane runs convPassesGo's operation sequence. A broadcast-first pass with
// fewer distinct positions than its width (convPass.np) keeps only their
// accumulators: three for one position of width 12, two or four for one or
// two of width 8. The zero kinds replace the product of a zero gradient by
// −0.0 with a VCMPPD NEQ_UQ mask and a VBLENDVPD. r.passes must not be
// empty (no pass list is: every pixel, or every channel at every tap, is in
// one).
//
//go:noescape
func convPassesAVX2(r *convRun)

// convPassesAVX2 addresses convRun and convPass by these byte offsets. A
// field moved, added or removed stops the build here (a constant index
// into a one-element array must be 0) instead of corrupting the kernels
// on amd64 only.
var _ = [...]struct{}{
	[1]struct{}{}[unsafe.Offsetof(convRun{}.b)-0],
	[1]struct{}{}[unsafe.Offsetof(convRun{}.v)-24],
	[1]struct{}{}[unsafe.Offsetof(convRun{}.init)-48],
	[1]struct{}{}[unsafe.Offsetof(convRun{}.r)-72],
	[1]struct{}{}[unsafe.Offsetof(convRun{}.passes)-96],
	[1]struct{}{}[unsafe.Offsetof(convRun{}.outer)-120],
	[1]struct{}{}[unsafe.Offsetof(convRun{}.bStep)-128],
	[1]struct{}{}[unsafe.Offsetof(convRun{}.vStep)-136],
	[1]struct{}{}[unsafe.Offsetof(convRun{}.rStep)-144],
	[1]struct{}{}[unsafe.Offsetof(convRun{}.lanes)-152],
	[1]struct{}{}[unsafe.Offsetof(convRun{}.width)-160],
	[1]struct{}{}[unsafe.Offsetof(convRun{}.kind)-168],
	[1]struct{}{}[unsafe.Offsetof(convPass{}.in)-0],
	[1]struct{}{}[unsafe.Offsetof(convPass{}.out)-24],
	[1]struct{}{}[unsafe.Offsetof(convPass{}.v)-48],
	[1]struct{}{}[unsafe.Offsetof(convPass{}.n1)-56],
	[1]struct{}{}[unsafe.Offsetof(convPass{}.n2)-64],
	[1]struct{}{}[unsafe.Offsetof(convPass{}.bRow)-72],
	[1]struct{}{}[unsafe.Offsetof(convPass{}.vRow)-80],
	[1]struct{}{}[unsafe.Offsetof(convPass{}.bOut)-88],
	[1]struct{}{}[unsafe.Offsetof(convPass{}.vOut)-96],
	[1]struct{}{}[unsafe.Offsetof(convPass{}.np)-104],
	[1]struct{}{}[unsafe.Sizeof(convPass{})-112],
	[1]struct{}{}[convBcastFirst-0],
	[1]struct{}{}[convBcastZero-1],
	[1]struct{}{}[convLaneFirst-2],
	[1]struct{}{}[convLaneZero-3],
}
