package tensor

import "math"

// BatchNorm over an NCHW activation [n, c, plane], per channel over
// (n, plane). The bit contract, which both backends keep:
//
//   - each channel's mean, variance, sumDy = Σdy and sumDyXhat = Σdy·x̂ is
//     one dependent add chain in ascending (sample, position) order from
//     +0; channels run side by side, a chain is never split;
//   - per element, x̂ = (x − μ)·invStd, y = γ·x̂ + β and
//     dx += (γ·invStd)·((dy − sumDy/m) − (x̂·sumDyXhat)/m), every operation
//     rounded on its own in that order (never FMA). γ·invStd and sumDy/m
//     are the first operations Go evaluates in the scalar form of that
//     expression, so computing them once per channel changes no bit; the
//     division by m = n·plane stays per element, because a reciprocal
//     rounds differently when m is not a power of two;
//   - the running statistics update as (1−momentum)·run + momentum·batch,
//     invStd = 1/sqrt(variance + eps).
//
// Backward recomputes x̂ from x and the saved μ and invStd (the same
// expression, so the same bits) instead of keeping an x̂ tensor.

// BatchNormStatsLen is the length of the per-call channel state
// BatchNormForward and BatchNormBackward share for c channels: μ,
// variance and invStd, then backward's sumDy and sumDyXhat.
func BatchNormStatsLen(c int) int { return 5 * c }

// BatchNormForward writes out = γ·x̂ + β for x [n, c, plane] (plane =
// len(x)/(n·c)). In training mode μ and the variance are the batch's, and
// runMean and runVar move toward them by momentum; in eval mode they are
// runMean and runVar. stats (BatchNormStatsLen(c) elements) receives μ,
// the variance and invStd for BatchNormBackward.
//
//mlperfvet:hotpath
func BatchNormForward(out, x, gamma, beta, runMean, runVar, stats []float64, n, c int, momentum, eps float64, train bool) {
	plane := bnCheck(x, stats, n, c)
	if len(out) != len(x) || len(gamma) != c || len(beta) != c || len(runMean) != c || len(runVar) != c {
		panic("tensor: BatchNormForward size mismatch")
	}
	mean, variance, invStd := stats[:c], stats[c:2*c], stats[2*c:3*c]
	if train {
		bnStats(mean, variance, x, n, c, plane)
		for ic := range mean {
			runMean[ic] = (1-momentum)*runMean[ic] + momentum*mean[ic]
			runVar[ic] = (1-momentum)*runVar[ic] + momentum*variance[ic]
		}
	} else {
		copy(mean, runMean)
		copy(variance, runVar)
	}
	for ic, v := range variance {
		invStd[ic] = 1 / math.Sqrt(v+eps)
	}
	bnNorm(out, x, n, c, plane, mean, invStd, gamma, beta)
}

// BatchNormBackward adds one BatchNormForward call's gradients for the
// output gradient dy: dx into dx, ∂γ (sumDyXhat) into dgamma and ∂β
// (sumDy) into dbeta, each skipped when nil. x, gamma and stats are the
// forward's; train is its mode (eval-mode dx is (γ·invStd)·dy and reads
// no sum).
//
//mlperfvet:hotpath
func BatchNormBackward(dx, dgamma, dbeta, dy, x, gamma, stats []float64, n, c int, train bool) {
	plane := bnCheck(x, stats, n, c)
	if len(dy) != len(x) || len(gamma) != c ||
		(dx != nil && len(dx) != len(x)) || (dgamma != nil && len(dgamma) != c) || (dbeta != nil && len(dbeta) != c) {
		panic("tensor: BatchNormBackward size mismatch")
	}
	mean, invStd := stats[:c], stats[2*c:3*c]
	sumDy, sumDyXhat := stats[3*c:4*c], stats[4*c:5*c]
	if dgamma != nil || dbeta != nil || (dx != nil && train) {
		bnGradSums(sumDy, sumDyXhat, dy, x, n, c, plane, mean, invStd)
	}
	if dgamma != nil {
		for ic, s := range sumDyXhat {
			dgamma[ic] += s
		}
	}
	if dbeta != nil {
		for ic, s := range sumDy {
			dbeta[ic] += s
		}
	}
	switch {
	case dx == nil:
	case train:
		bnDx(dx, dy, x, n, c, plane, mean, invStd, gamma, sumDy, sumDyXhat)
	default:
		bnDxEvalGo(dx, dy, n, c, plane, gamma, invStd)
	}
}

// bnStats writes each channel's batch mean and variance. With AVX2 and at
// least four channels the lanes are channels, eight chains to a call in
// two groups of four (the last group starts at c−4, so groups overlap
// rather than run past the channels; an overlapped lane writes the bits
// its first group wrote); otherwise Go runs four scalar chains at a time.
//
//mlperfvet:hotpath
func bnStats(mean, variance, x []float64, n, c, plane int) {
	m := float64(n * plane)
	if !gemmUseAsm || c < 4 {
		bnMeanGo(mean, x, n, c, plane, m)
		bnVarGo(variance, x, mean, n, c, plane, m)
		return
	}
	for g := 0; g < c; g += 8 {
		bnSumAVX2(&mean[0], &x[0], n, c, plane, min(g, c-4), min(g+4, c-4))
	}
	for ic, s := range mean {
		mean[ic] = s / m
	}
	for g := 0; g < c; g += 8 {
		bnSqDevAVX2(&variance[0], &x[0], n, c, plane, min(g, c-4), min(g+4, c-4), &mean[0])
	}
	for ic, s := range variance {
		variance[ic] = s / m
	}
}

// bnGradSums writes each channel's sumDy and sumDyXhat, on channel lanes as
// bnStats does, or on Go's scalar chains.
//
//mlperfvet:hotpath
func bnGradSums(sumDy, sumDyXhat, dy, x []float64, n, c, plane int, mean, invStd []float64) {
	if !gemmUseAsm || c < 4 {
		bnGradSumsGo(sumDy, sumDyXhat, dy, x, n, c, plane, mean, invStd)
		return
	}
	for g := 0; g < c; g += 8 {
		bnGradSumsAVX2(&sumDy[0], &sumDyXhat[0], &dy[0], &x[0], n, c, plane, min(g, c-4), min(g+4, c-4), &mean[0], &invStd[0])
	}
}

// bnNorm writes the normalised output; with AVX2 the lanes run along each
// plane.
//
//mlperfvet:hotpath
func bnNorm(out, x []float64, n, c, plane int, mean, invStd, gamma, beta []float64) {
	if gemmUseAsm {
		bnNormAVX2(&out[0], &x[0], n, c, plane, &mean[0], &invStd[0], &gamma[0], &beta[0])
		return
	}
	bnNormGo(out, x, n, c, plane, mean, invStd, gamma, beta)
}

// bnDx adds the training-mode dx; with AVX2 the lanes run along each
// plane.
//
//mlperfvet:hotpath
func bnDx(dx, dy, x []float64, n, c, plane int, mean, invStd, gamma, sumDy, sumDyXhat []float64) {
	m := float64(n * plane)
	if gemmUseAsm {
		bnDxAVX2(&dx[0], &dy[0], &x[0], n, c, plane, &mean[0], &invStd[0], &gamma[0], &sumDy[0], &sumDyXhat[0], m)
		return
	}
	bnDxGo(dx, dy, x, n, c, plane, mean, invStd, gamma, sumDy, sumDyXhat, m)
}

// bnCheck validates x and stats against n and c and returns the plane.
func bnCheck(x, stats []float64, n, c int) int {
	if n <= 0 || c <= 0 || len(x) == 0 || len(x)%(n*c) != 0 || len(stats) != BatchNormStatsLen(c) {
		panic("tensor: BatchNorm size mismatch")
	}
	return len(x) / (n * c)
}

// bnMeanGo writes each channel's Σx/m, four channels' chains at a time,
// then two, then one.
//
//mlperfvet:hotpath
func bnMeanGo(mean, x []float64, n, c, plane int, m float64) {
	ic := 0
	for ; ic+4 <= c; ic += 4 {
		var s0, s1, s2, s3 float64
		for in := 0; in < n; in++ {
			r0 := x[(in*c+ic)*plane:][:plane]
			r1 := x[(in*c+ic+1)*plane:][:plane]
			r2 := x[(in*c+ic+2)*plane:][:plane]
			r3 := x[(in*c+ic+3)*plane:][:plane]
			for p, v := range r0 {
				s0 += v
				s1 += r1[p]
				s2 += r2[p]
				s3 += r3[p]
			}
		}
		mean[ic], mean[ic+1], mean[ic+2], mean[ic+3] = s0/m, s1/m, s2/m, s3/m
	}
	for ; ic+2 <= c; ic += 2 {
		var s0, s1 float64
		for in := 0; in < n; in++ {
			r0 := x[(in*c+ic)*plane:][:plane]
			r1 := x[(in*c+ic+1)*plane:][:plane]
			for p, v := range r0 {
				s0 += v
				s1 += r1[p]
			}
		}
		mean[ic], mean[ic+1] = s0/m, s1/m
	}
	for ; ic < c; ic++ {
		s := 0.0
		for in := 0; in < n; in++ {
			for _, v := range x[(in*c+ic)*plane:][:plane] {
				s += v
			}
		}
		mean[ic] = s / m
	}
}

// bnVarGo writes each channel's Σ(x−μ)²/m, grouped as bnMeanGo.
//
//mlperfvet:hotpath
func bnVarGo(variance, x, mean []float64, n, c, plane int, m float64) {
	ic := 0
	for ; ic+4 <= c; ic += 4 {
		mu0, mu1, mu2, mu3 := mean[ic], mean[ic+1], mean[ic+2], mean[ic+3]
		var s0, s1, s2, s3 float64
		for in := 0; in < n; in++ {
			r0 := x[(in*c+ic)*plane:][:plane]
			r1 := x[(in*c+ic+1)*plane:][:plane]
			r2 := x[(in*c+ic+2)*plane:][:plane]
			r3 := x[(in*c+ic+3)*plane:][:plane]
			for p, v := range r0 {
				d0, d1, d2, d3 := v-mu0, r1[p]-mu1, r2[p]-mu2, r3[p]-mu3
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
			}
		}
		variance[ic], variance[ic+1], variance[ic+2], variance[ic+3] = s0/m, s1/m, s2/m, s3/m
	}
	for ; ic+2 <= c; ic += 2 {
		mu0, mu1 := mean[ic], mean[ic+1]
		var s0, s1 float64
		for in := 0; in < n; in++ {
			r0 := x[(in*c+ic)*plane:][:plane]
			r1 := x[(in*c+ic+1)*plane:][:plane]
			for p, v := range r0 {
				d0, d1 := v-mu0, r1[p]-mu1
				s0 += d0 * d0
				s1 += d1 * d1
			}
		}
		variance[ic], variance[ic+1] = s0/m, s1/m
	}
	for ; ic < c; ic++ {
		mu, s := mean[ic], 0.0
		for in := 0; in < n; in++ {
			for _, v := range x[(in*c+ic)*plane:][:plane] {
				d := v - mu
				s += d * d
			}
		}
		variance[ic] = s / m
	}
}

// bnGradSumsGo writes each channel's sumDy and sumDyXhat (x̂ recomputed), two
// chains per channel, grouped as bnMeanGo.
//
//mlperfvet:hotpath
func bnGradSumsGo(sumDy, sumDyXhat, dy, x []float64, n, c, plane int, mean, invStd []float64) {
	ic := 0
	for ; ic+4 <= c; ic += 4 {
		mu0, mu1, mu2, mu3 := mean[ic], mean[ic+1], mean[ic+2], mean[ic+3]
		is0, is1, is2, is3 := invStd[ic], invStd[ic+1], invStd[ic+2], invStd[ic+3]
		var a0, a1, a2, a3, b0, b1, b2, b3 float64
		for in := 0; in < n; in++ {
			o := (in*c + ic) * plane
			x0, g0 := x[o:][:plane], dy[o:][:plane]
			x1, g1 := x[o+plane:][:plane], dy[o+plane:][:plane]
			x2, g2 := x[o+2*plane:][:plane], dy[o+2*plane:][:plane]
			x3, g3 := x[o+3*plane:][:plane], dy[o+3*plane:][:plane]
			for p, d0 := range g0 {
				d1, d2, d3 := g1[p], g2[p], g3[p]
				a0 += d0
				a1 += d1
				a2 += d2
				a3 += d3
				b0 += d0 * ((x0[p] - mu0) * is0)
				b1 += d1 * ((x1[p] - mu1) * is1)
				b2 += d2 * ((x2[p] - mu2) * is2)
				b3 += d3 * ((x3[p] - mu3) * is3)
			}
		}
		sumDy[ic], sumDy[ic+1], sumDy[ic+2], sumDy[ic+3] = a0, a1, a2, a3
		sumDyXhat[ic], sumDyXhat[ic+1], sumDyXhat[ic+2], sumDyXhat[ic+3] = b0, b1, b2, b3
	}
	for ; ic+2 <= c; ic += 2 {
		mu0, mu1, is0, is1 := mean[ic], mean[ic+1], invStd[ic], invStd[ic+1]
		var a0, a1, b0, b1 float64
		for in := 0; in < n; in++ {
			o := (in*c + ic) * plane
			x0, g0 := x[o:][:plane], dy[o:][:plane]
			x1, g1 := x[o+plane:][:plane], dy[o+plane:][:plane]
			for p, d0 := range g0 {
				d1 := g1[p]
				a0 += d0
				a1 += d1
				b0 += d0 * ((x0[p] - mu0) * is0)
				b1 += d1 * ((x1[p] - mu1) * is1)
			}
		}
		sumDy[ic], sumDy[ic+1] = a0, a1
		sumDyXhat[ic], sumDyXhat[ic+1] = b0, b1
	}
	for ; ic < c; ic++ {
		mu, is := mean[ic], invStd[ic]
		var a, b float64
		for in := 0; in < n; in++ {
			o := (in*c + ic) * plane
			xr := x[o:][:plane]
			for p, d := range dy[o:][:plane] {
				a += d
				b += d * ((xr[p] - mu) * is)
			}
		}
		sumDy[ic], sumDyXhat[ic] = a, b
	}
}

// bnNormGo writes out = γ·((x − μ)·invStd) + β, plane by plane.
//
//mlperfvet:hotpath
func bnNormGo(out, x []float64, n, c, plane int, mean, invStd, gamma, beta []float64) {
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			o := (in*c + ic) * plane
			mu, is, g, b := mean[ic], invStd[ic], gamma[ic], beta[ic]
			xr, yr := x[o:][:plane], out[o:][:plane]
			for p, v := range xr {
				yr[p] = g*((v-mu)*is) + b
			}
		}
	}
}

// bnDxGo adds the training-mode dx, plane by plane, with γ·invStd and
// sumDy/m computed once per channel.
//
//mlperfvet:hotpath
func bnDxGo(dx, dy, x []float64, n, c, plane int, mean, invStd, gamma, sumDy, sumDyXhat []float64, m float64) {
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			o := (in*c + ic) * plane
			mu, is := mean[ic], invStd[ic]
			k, mdy, sdx := gamma[ic]*is, sumDy[ic]/m, sumDyXhat[ic]
			xr, gr, dr := x[o:][:plane], dy[o:][:plane], dx[o:][:plane]
			for p, v := range xr {
				xh := (v - mu) * is
				dr[p] += k * ((gr[p] - mdy) - xh*sdx/m)
			}
		}
	}
}

// bnDxEvalGo adds the eval-mode dx, (γ·invStd)·dy.
//
//mlperfvet:hotpath
func bnDxEvalGo(dx, dy []float64, n, c, plane int, gamma, invStd []float64) {
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			o := (in*c + ic) * plane
			k := gamma[ic] * invStd[ic]
			gr, dr := dy[o:][:plane], dx[o:][:plane]
			for p, d := range gr {
				dr[p] += k * d
			}
		}
	}
}
