package opt_test

import (
	"math"
	"testing"

	"repro/internal/autograd"
	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// scalarAdam is the update Adam.Step ran one element at a time before
// tensor.AdamUpdate took it, kept here as the oracle: it owns copies of
// the parameters and both moments and reads only the gradients.
type scalarAdam struct {
	beta1, beta2, eps, wd, lr float64
	t                         int
	val, m, v                 [][]float64
}

func (a *scalarAdam) step(params []*autograd.Param) {
	a.t++
	bc1 := 1 - math.Pow(a.beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.beta2, float64(a.t))
	for k, p := range params {
		val, m, v := a.val[k], a.m[k], a.v[k]
		for i := range val {
			g := p.Grad.Data[i] + a.wd*val[i]
			m[i] = a.beta1*m[i] + (1-a.beta1)*g
			v[i] = a.beta2*v[i] + (1-a.beta2)*g*g
			mh := m[i] / bc1
			vh := v[i] / bc2
			val[i] -= a.lr * mh / (math.Sqrt(vh) + a.eps)
		}
	}
}

// TestAdamStepMatchesScalar runs 50 steps of Adam.Step against the scalar
// update on the two parameter lists the benchmarks train with Adam (NCF's
// and the transformer's, so every tensor length either model has crosses
// the kernel's four-lane boundary where it falls), with weight decay and a
// moving learning rate: parameters and both moments must
// be bit-equal after every step.
func TestAdamStepMatchesScalar(t *testing.T) {
	rec := datasets.GenerateRec(datasets.DefaultRecConfig())
	ncfHP, mtHP := models.DefaultNCFHParams(), models.DefaultTransformerHParams()
	for _, tc := range []struct {
		name   string
		params []*autograd.Param
	}{
		{"ncf", models.NewNCF(rec.Users, rec.Items, ncfHP.GMFDim, ncfHP.MLPDim, tensor.NewRNG(1)).Params()},
		{"transformer", models.NewTransformer(datasets.DefaultMTConfig().Vocab, mtHP.D, mtHP.Heads, mtHP.FF, mtHP.Layers, tensor.NewRNG(1)).Params()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const wd = 1e-4
			adam := opt.NewAdam(tc.params, 0.002, 0.9, 0.98, 1e-9, wd)
			want := &scalarAdam{beta1: 0.9, beta2: 0.98, eps: 1e-9, wd: wd}
			for _, p := range tc.params {
				want.val = append(want.val, append([]float64(nil), p.Value.Data...))
				want.m = append(want.m, make([]float64, p.Value.Size()))
				want.v = append(want.v, make([]float64, p.Value.Size()))
			}
			rng := tensor.NewRNG(7)
			for step := 1; step <= 50; step++ {
				for _, p := range tc.params {
					copy(p.Grad.Data, tensor.Randn(rng, 1, p.Grad.Size()).Data)
				}
				lr := 0.002 / math.Sqrt(float64(step))
				adam.SetLR(lr)
				want.lr = lr
				adam.Step()
				want.step(tc.params)
				st := adam.CaptureState()
				for k, p := range tc.params {
					for _, c := range []struct {
						name      string
						got, want []float64
					}{
						{"value", p.Value.Data, want.val[k]},
						{"m", st.Slots[2*k], want.m[k]},
						{"v", st.Slots[2*k+1], want.v[k]},
					} {
						for i, got := range c.got {
							if math.Float64bits(got) != math.Float64bits(c.want[i]) {
								t.Fatalf("step %d, %s[%d] of %q (%d elements): %v, scalar update %v",
									step, c.name, i, p.Name, p.Value.Size(), got, c.want[i])
							}
						}
					}
				}
			}
		})
	}
}
