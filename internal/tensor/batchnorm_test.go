package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// batchNormRef is the BatchNorm forward as autograd.BatchNorm2D ran it
// before the channel-parallel kernels, on slices: the parity oracle. It
// writes x̂ into xhat and μ, the variance and invStd into stats [3c], the
// saved state batchNormBackRef reads.
func batchNormRef(out, xhat, x, gamma, beta, runMean, runVar, stats []float64, n, c, plane int, momentum, eps float64, train bool) {
	h, w := plane, 1
	m := float64(n * plane)
	mean, variance, invStd := stats[:c], stats[c:2*c], stats[2*c:3*c]
	if train {
		for ic := 0; ic < c; ic++ {
			s := 0.0
			for in := 0; in < n; in++ {
				base := ((in*c + ic) * h) * w
				for p := 0; p < plane; p++ {
					s += x[base+p]
				}
			}
			mean[ic] = s / m
		}
		for ic := 0; ic < c; ic++ {
			s := 0.0
			for in := 0; in < n; in++ {
				base := ((in*c + ic) * h) * w
				for p := 0; p < plane; p++ {
					d := x[base+p] - mean[ic]
					s += d * d
				}
			}
			variance[ic] = s / m
		}
		for ic := 0; ic < c; ic++ {
			runMean[ic] = (1-momentum)*runMean[ic] + momentum*mean[ic]
			runVar[ic] = (1-momentum)*runVar[ic] + momentum*variance[ic]
		}
	} else {
		copy(mean, runMean)
		copy(variance, runVar)
	}
	for ic := 0; ic < c; ic++ {
		invStd[ic] = 1 / math.Sqrt(variance[ic]+eps)
	}
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			base := ((in*c + ic) * h) * w
			g, bb := gamma[ic], beta[ic]
			for p := 0; p < plane; p++ {
				xh := (x[base+p] - mean[ic]) * invStd[ic]
				xhat[base+p] = xh
				out[base+p] = g*xh + bb
			}
		}
	}
}

// batchNormBackRef is batchNorm2DBack as it was, on slices; a nil
// gradient stands for an operand off the tape.
func batchNormBackRef(dx, dgamma, dbeta, dy, xhat, gamma, invStd []float64, n, c, plane int, train bool) {
	h, w := plane, 1
	m := float64(n * plane)
	for ic := 0; ic < c; ic++ {
		sumDy, sumDyXhat := 0.0, 0.0
		for in := 0; in < n; in++ {
			base := ((in*c + ic) * h) * w
			for p := 0; p < plane; p++ {
				d := dy[base+p]
				sumDy += d
				sumDyXhat += d * xhat[base+p]
			}
		}
		if dgamma != nil {
			dgamma[ic] += sumDyXhat
		}
		if dbeta != nil {
			dbeta[ic] += sumDy
		}
		if dx != nil {
			g := gamma[ic]
			if train {
				for in := 0; in < n; in++ {
					base := ((in*c + ic) * h) * w
					for p := 0; p < plane; p++ {
						d := dy[base+p]
						dx[base+p] += g * invStd[ic] *
							(d - sumDy/m - xhat[base+p]*sumDyXhat/m)
					}
				}
			} else {
				for in := 0; in < n; in++ {
					base := ((in*c + ic) * h) * w
					for p := 0; p < plane; p++ {
						dx[base+p] += g * invStd[ic] * dy[base+p]
					}
				}
			}
		}
	}
}

// bnNaN is the one NaN payload the parity inputs carry. Two NaNs with
// different payloads meeting in a commutative operation may give either
// payload, by which operand the compiler put first, so a channel holds at
// most one kind of NaN: this payload (where its inputs hold no infinity,
// nor a value whose sums overflow) or the default NaN the arithmetic
// makes from infinities (where they hold no payload).
var bnNaN = math.Float64frombits(0x7ff8_0000_dead_beef)

// bnQuiet are the values every channel may hold: both zeros, subnormals of
// either sign and the smallest normal.
var bnQuiet = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 3e-310, -3e-310, 2.2250738585072014e-308}

// bnLoud make the default NaN or overflow: both infinities and values
// whose squares and sums overflow.
var bnLoud = []float64{math.Inf(1), math.Inf(-1), 1.7e308, -1.7e308, 1e200}

// bnCase is one parity input: x, dy, γ, β, the running statistics and the
// gradients' starting values for n samples of c channels over a plane.
type bnCase struct {
	n, c, plane                         int
	x, dy, gamma, beta, runMean, runVar []float64
	dx0, dgamma0, dbeta0                []float64
}

// bnInputs draws a case. Each channel draws a class: plain normals, a
// sprinkling of bnQuiet, the payload NaN in x or in dy (no bnLoud value),
// bnLoud in x or in dy (no payload), or a constant x (variance 0).
func bnInputs(rng *RNG, n, c, plane int) bnCase {
	bc := bnCase{n: n, c: c, plane: plane}
	norm := func(k int) []float64 {
		s := make([]float64, k)
		for i := range s {
			s[i] = rng.Norm()
		}
		return s
	}
	bc.x, bc.dy, bc.dx0 = norm(n*c*plane), norm(n*c*plane), norm(n*c*plane)
	bc.gamma, bc.beta, bc.runMean = norm(c), norm(c), norm(c)
	bc.dgamma0, bc.dbeta0, bc.runVar = norm(c), norm(c), make([]float64, c)
	pick := func(s []float64) float64 { return s[rng.Intn(len(s))] }
	for ic := 0; ic < c; ic++ {
		bc.runVar[ic] = math.Abs(rng.Norm())
		class := rng.Intn(7)
		switch class {
		case 1:
			bc.gamma[ic] = pick(bnQuiet)
		case 2:
			bc.beta[ic], bc.dgamma0[ic] = pick(bnLoud), bnNaN
		}
		for in := 0; in < n; in++ {
			o := (in*c + ic) * plane
			for p := o; p < o+plane; p++ {
				if rng.Intn(4) != 0 {
					continue
				}
				switch class {
				case 1:
					bc.x[p], bc.dy[p], bc.dx0[p] = pick(bnQuiet), pick(bnQuiet), pick(bnQuiet)
				case 2:
					bc.x[p], bc.dx0[p] = bnNaN, bnNaN
				case 3:
					bc.dy[p] = bnNaN
				case 4:
					bc.x[p] = pick(bnLoud)
				case 5:
					bc.dy[p], bc.dx0[p] = pick(bnLoud), pick(bnQuiet)
				}
			}
			if class == 6 {
				for p := o; p < o+plane; p++ {
					bc.x[p] = 0.75
				}
			}
		}
	}
	return bc
}

// withCanaries returns a copy of s between two canary elements and the
// view of the copy that a kernel may write.
func withCanaries(s []float64) (buf, view []float64) {
	buf = make([]float64, len(s)+2)
	buf[0], buf[len(s)+1] = 77, 78
	copy(buf[1:], s)
	return buf, buf[1 : len(s)+1]
}

// TestBatchNormKernelParity holds BatchNormForward and BatchNormBackward,
// on the AVX2 bodies and on the portable Go bodies, to the scalar loops
// they replaced (batchNormRef, batchNormBackRef), bit for bit: the output,
// the running mean and variance, dx, dγ and dβ, for C = 1…17 (every
// channel-group tail), N ∈ {1, 2, 5}, planes 1, 3, 25 and 100 (every
// vector tail, and ResNet's two planes), train and eval mode, and each of
// dx, dγ and dβ wanted or not (an operand on or off the tape), on inputs
// holding signed zeros, a NaN payload, infinities, subnormals and values
// near overflow. Canaries either side of out and dx catch a store past
// either end.
func TestBatchNormKernelParity(t *testing.T) {
	forBothBackends(func(backend string) {
		rng := NewRNG(97)
		for c := 1; c <= 17; c++ {
			for _, n := range []int{1, 2, 5} {
				for _, plane := range []int{1, 3, 25, 100} {
					bc := bnInputs(rng, n, c, plane)
					for _, train := range []bool{true, false} {
						for wants := 0; wants < 8; wants++ {
							label := fmt.Sprintf("%s c=%d n=%d plane=%d train=%v dx=%v dγ=%v dβ=%v",
								backend, c, n, plane, train, wants&1 != 0, wants&2 != 0, wants&4 != 0)
							checkBatchNormCase(t, label, bc, train, wants)
						}
					}
				}
			}
		}
	})
}

func checkBatchNormCase(t *testing.T, label string, bc bnCase, train bool, wants int) {
	t.Helper()
	n, c, plane := bc.n, bc.c, bc.plane
	const momentum, eps = 0.1, 1e-5

	wantOut := make([]float64, len(bc.x))
	wantMean, wantVar := append([]float64(nil), bc.runMean...), append([]float64(nil), bc.runVar...)
	xhat, refStats := make([]float64, len(bc.x)), make([]float64, 3*c)
	batchNormRef(wantOut, xhat, bc.x, bc.gamma, bc.beta, wantMean, wantVar, refStats, n, c, plane, momentum, eps, train)

	outBuf, out := withCanaries(make([]float64, len(bc.x)))
	gotMean, gotVar := append([]float64(nil), bc.runMean...), append([]float64(nil), bc.runVar...)
	stats := make([]float64, BatchNormStatsLen(c))
	BatchNormForward(out, bc.x, bc.gamma, bc.beta, gotMean, gotVar, stats, n, c, momentum, eps, train)
	wantOutBuf, _ := withCanaries(wantOut)
	sameBitsOf(t, label+" out", outBuf, wantOutBuf)
	sameBitsOf(t, label+" running mean", gotMean, wantMean)
	sameBitsOf(t, label+" running variance", gotVar, wantVar)

	var wdx, wdg, wdb, gdx, gdg, gdb, gdxBuf []float64
	if wants&1 != 0 {
		wdx = append([]float64(nil), bc.dx0...)
		gdxBuf, gdx = withCanaries(bc.dx0)
	}
	if wants&2 != 0 {
		wdg, gdg = append([]float64(nil), bc.dgamma0...), append([]float64(nil), bc.dgamma0...)
	}
	if wants&4 != 0 {
		wdb, gdb = append([]float64(nil), bc.dbeta0...), append([]float64(nil), bc.dbeta0...)
	}
	batchNormBackRef(wdx, wdg, wdb, bc.dy, xhat, bc.gamma, refStats[2*c:], n, c, plane, train)
	BatchNormBackward(gdx, gdg, gdb, bc.dy, bc.x, bc.gamma, stats, n, c, train)
	if wdx != nil {
		wdxBuf, _ := withCanaries(wdx)
		sameBitsOf(t, label+" dx", gdxBuf, wdxBuf)
	}
	sameBitsOf(t, label+" dγ", gdg, wdg)
	sameBitsOf(t, label+" dβ", gdb, wdb)
}

// BenchmarkBatchNormPasses times BatchNorm at the default ResNet's two
// activation shapes (32×6×10×10 and 32×12×5×5, training mode) pass by
// pass (stats: mean and variance; normalise; sums: sumDy and sumDyXhat;
// dx) and whole (forward, backward), on the AVX2 bodies and on the
// portable Go bodies,
// and whole on the scalar loops they replaced (`oracle`), all in one
// binary so every row sees the same load. BENCH_conv.json holds the rows
// that admit each AVX2 body.
func BenchmarkBatchNormPasses(b *testing.B) {
	for _, backend := range []string{"avx2", "portable", "oracle"} {
		if backend == "avx2" && !gemmUseAsm {
			continue
		}
		for _, sh := range []struct{ c, size int }{{6, 10}, {12, 5}} {
			n, c, plane := 32, sh.c, sh.size*sh.size
			rng := NewRNG(13)
			x, dy := Randn(rng, 1, n*c*plane).Data, Randn(rng, 1, n*c*plane).Data
			gamma, beta := Randn(rng, 1, c).Data, Randn(rng, 1, c).Data
			runMean, runVar := make([]float64, c), make([]float64, c)
			out, dx, dgamma, dbeta := make([]float64, len(x)), make([]float64, len(x)), make([]float64, c), make([]float64, c)
			stats := make([]float64, BatchNormStatsLen(c))
			mean, variance, invStd := stats[:c], stats[c:2*c], stats[2*c:3*c]
			sumDy, sumDyXhat := stats[3*c:4*c], stats[4*c:]
			xhat, refStats := make([]float64, len(x)), make([]float64, 3*c)
			type pass struct {
				name string
				fn   func()
			}
			passes := []pass{
				{"forward", func() {
					BatchNormForward(out, x, gamma, beta, runMean, runVar, stats, n, c, 0.1, 1e-5, true)
				}},
				{"backward", func() {
					BatchNormBackward(dx, dgamma, dbeta, dy, x, gamma, stats, n, c, true)
				}},
				{"stats", func() { bnStats(mean, variance, x, n, c, plane) }},
				{"normalise", func() { bnNorm(out, x, n, c, plane, mean, invStd, gamma, beta) }},
				{"sums", func() { bnGradSums(sumDy, sumDyXhat, dy, x, n, c, plane, mean, invStd) }},
				{"dx", func() { bnDx(dx, dy, x, n, c, plane, mean, invStd, gamma, sumDy, sumDyXhat) }},
			}
			if backend == "oracle" {
				passes = []pass{
					{"forward", func() {
						batchNormRef(out, xhat, x, gamma, beta, runMean, runVar, refStats, n, c, plane, 0.1, 1e-5, true)
					}},
					{"backward", func() {
						batchNormBackRef(dx, dgamma, dbeta, dy, xhat, gamma, refStats[2*c:], n, c, plane, true)
					}},
				}
			}
			for _, ps := range passes {
				b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", backend, c, sh.size, sh.size, ps.name), func(b *testing.B) {
					old := gemmUseAsm
					gemmUseAsm = backend == "avx2"
					defer func() { gemmUseAsm = old }()
					passes[0].fn() // the statistics every later pass reads
					ps.fn()
					runtime.GC()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						ps.fn()
					}
				})
			}
		}
	}
}
