//go:build amd64

package tensor

// bnNormAVX2 is bnNormGo's AVX2 body (batchnorm_amd64.s), gated by the
// shared gemmUseAsm flag: out = γ·((x − μ)·invStd) + β over every plane
// of an [n, c, plane] activation, eight then four positions to a VSUBPD,
// VMULPD, VMULPD, VADDPD sequence with the channel's scalars broadcast,
// then a scalar tail of the same instructions. n, c and plane must be at least 1.
//
//go:noescape
func bnNormAVX2(out, x *float64, n, c, plane int, mean, invStd, gamma, beta *float64)

// bnDxAVX2 is bnDxGo's AVX2 body:
// dx += k·((dy − sumDy/m) − (x̂·sumDyXhat)/m) with x̂ = (x − μ)·invStd and
// k = γ·invStd, k and sumDy/m rounded once per channel as scalars, then
// eight and four positions to a pass (VDIVPD for the division by m) and a
// scalar tail. n, c and plane must be at least 1.
//
//go:noescape
func bnDxAVX2(dx, dy, x *float64, n, c, plane int, mean, invStd, gamma, sumDy, sumDyXhat *float64, m float64)

// bnSumAVX2 is the channel-lane body of bnMeanGo's sums: Σx for the four
// channels from gA and the four from gB (groups may overlap or coincide),
// each lane one channel's chain in bnMeanGo's order, written to
// sum[gA…gA+3] and sum[gB…gB+3]. c must be at least 4 and gA, gB at most
// c−4; n and plane at least 1.
//
//go:noescape
func bnSumAVX2(sum, x *float64, n, c, plane, gA, gB int)

// bnSqDevAVX2 is bnSumAVX2 for bnVarGo's sums, Σ(x − μ)².
//
//go:noescape
func bnSqDevAVX2(sum, x *float64, n, c, plane, gA, gB int, mean *float64)

// bnGradSumsAVX2 is bnSumAVX2 for bnGradSumsGo's two sums per channel,
// sumDy and sumDyXhat.
//
//go:noescape
func bnGradSumsAVX2(sumDy, sumDyXhat, dy, x *float64, n, c, plane, gA, gB int, mean, invStd *float64)
