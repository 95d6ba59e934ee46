//go:build amd64

package tensor

import "unsafe"

// convPassesAVX2 is convRunPasses' AVX2 body (conv_amd64.s), gated by the
// shared gemmUseAsm flag: every pass of r in YMM accumulators of four
// float64 lanes each, a VBROADCASTSD of the broadcast operand per position
// and term, then a VMULPD and a VADDPD per lane group (never FMA), so every
// lane runs convPassesGo's operation sequence. Width 12 holds two
// positions of three groups, width 8 four positions of two. A pass with
// fewer distinct positions than its width (convPass.np) runs on a
// narrower nest: at width 8, on the nest of three positions, the repeats
// run to the same bits and not stored, but a broadcast-first pass of one
// or two positions and a lanes-first pass of two, which have nests of
// their own; at width 12, a broadcast-first pass of one position on three
// accumulators. The zero kinds replace the product of a zero
// gradient by −0.0 with a VCMPPD NEQ_UQ mask and a VBLENDVPD. r.passes
// must not be empty (no pass list is: every pixel, or every channel at
// every tap, is in one).
//
//go:noescape
func convPassesAVX2(r *convRun)

// convPassesAVX512 is convRunPasses' body for runs of width 8 on a CPU
// with AVX-512 (convUseAVX512): a full pass holds each of its four
// positions in one ZMM accumulator of eight lanes, lanes 0-5 the filters
// or channels of a six-wide layer and the padding lanes never stored, and
// each term is one VBROADCASTSD, one VMULPD and one VADDPD on 512 bits,
// never FMA. The zero kinds compare into an opmask and skip the add in the
// lanes it clears, which leaves the bits of adding −0.0: those
// accumulators start at +0 and only ever hold sums. A pass of at most
// three distinct positions runs on convPassesAVX2's YMM nests, which are
// faster there (a 256-bit add takes two cycles, a 512-bit one four, so one
// or two ZMM chains wait on the add). Same contract as convPassesAVX2; the
// gate (gemm_amd64.go) needs AVX512F, the only AVX-512 subset it uses, and
// the OS saving the opmask and ZMM state.
//
//go:noescape
func convPassesAVX512(r *convRun)

// The bodies address convRun and convPass by these byte offsets. A field
// moved, added or removed stops the build here (a constant index into a
// one-element array must be 0) instead of corrupting the kernels on amd64
// only.
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
	[1]struct{}{}[unsafe.Offsetof(convPass{}.out)-32],
	[1]struct{}{}[unsafe.Offsetof(convPass{}.v)-64],
	[1]struct{}{}[unsafe.Offsetof(convPass{}.n1)-72],
	[1]struct{}{}[unsafe.Offsetof(convPass{}.n2)-80],
	[1]struct{}{}[unsafe.Offsetof(convPass{}.bRow)-88],
	[1]struct{}{}[unsafe.Offsetof(convPass{}.vRow)-96],
	[1]struct{}{}[unsafe.Offsetof(convPass{}.bOut)-104],
	[1]struct{}{}[unsafe.Offsetof(convPass{}.vOut)-112],
	[1]struct{}{}[unsafe.Offsetof(convPass{}.np)-120],
	[1]struct{}{}[unsafe.Sizeof(convPass{})-128],
	[1]struct{}{}[convBcastFirst-0],
	[1]struct{}{}[convBcastZero-1],
	[1]struct{}{}[convLaneFirst-2],
	[1]struct{}{}[convLaneZero-3],
}
