// Package opt implements the optimizers and learning-rate schedules used by
// the MLPerf Training benchmarks: SGD with momentum in both framework
// formulations the paper contrasts in §2.2.4, Adam, and LARS (the large-
// batch optimizer the v0.6 rules allow for ResNet, §5/§6).
package opt

import (
	"math"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// Optimizer consumes accumulated parameter gradients and updates values.
type Optimizer interface {
	// Step applies one update using the current learning rate.
	Step()
	// SetLR changes the learning rate (driven by a Schedule).
	SetLR(lr float64)
	// LR returns the current learning rate.
	LR() float64
}

// MomentumStyle selects between the two stochastic-gradient-descent
// momentum formulations of §2.2.4. They are mathematically identical at a
// fixed learning rate, but diverge when the rate changes during training:
//
//	CaffeStyle (Eq. 1):  m ← α·m + lr·g ;  w ← w − m
//	TorchStyle (Eq. 2):  m ← α·m + g    ;  w ← w − lr·m
type MomentumStyle int

const (
	// TorchStyle is the PyTorch/TensorFlow formulation (Eq. 2).
	TorchStyle MomentumStyle = iota
	// CaffeStyle is the Caffe formulation (Eq. 1): the learning rate is
	// folded into the velocity, so past velocity carries the old rate.
	CaffeStyle
)

// SGD is stochastic gradient descent with momentum and decoupled L2 weight
// decay (applied to the gradient, as in the reference implementations).
type SGD struct {
	Params      []*autograd.Param
	Momentum    float64
	WeightDecay float64
	Style       MomentumStyle

	lr       float64
	velocity map[*autograd.Param][]float64
}

// NewSGD builds an SGD optimizer.
func NewSGD(params []*autograd.Param, lr, momentum, weightDecay float64, style MomentumStyle) *SGD {
	return &SGD{
		Params:      params,
		Momentum:    momentum,
		WeightDecay: weightDecay,
		Style:       style,
		lr:          lr,
		velocity:    make(map[*autograd.Param][]float64, len(params)),
	}
}

// Step implements Optimizer.
func (s *SGD) Step() {
	for _, p := range s.Params {
		v := s.velocity[p]
		if v == nil {
			v = make([]float64, p.Value.Size())
			s.velocity[p] = v
		}
		for i := range p.Value.Data {
			g := p.Grad.Data[i] + s.WeightDecay*p.Value.Data[i]
			switch s.Style {
			case CaffeStyle:
				v[i] = s.Momentum*v[i] + s.lr*g
				p.Value.Data[i] -= v[i]
			default: // TorchStyle
				v[i] = s.Momentum*v[i] + g
				p.Value.Data[i] -= s.lr * v[i]
			}
		}
	}
}

// SetLR implements Optimizer.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.lr }

// Adam is the Adam optimizer (Kingma & Ba, 2015), the reference optimizer
// for the Transformer and NCF benchmarks.
//
// State is two vectors per parameter, the first moment m and the second
// moment v, in maps keyed by parameter pointer and created on the first
// Step that sees the parameter (opt/state.go flattens them, m then v, in
// Params order for a checkpoint), plus the step counter t behind the bias
// corrections. Step hands each parameter to tensor.AdamUpdate, whose AVX2
// kernel updates four elements at once; every lane runs the scalar
// sequence, one correctly rounded operation at a time with nothing fused,
// so the parameters and both moments hold the bits a scalar loop writes.
type Adam struct {
	Params       []*autograd.Param
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64

	lr   float64
	t    int
	m, v map[*autograd.Param][]float64
}

// NewAdam builds an Adam optimizer with the given hyperparameters.
func NewAdam(params []*autograd.Param, lr, beta1, beta2, eps, weightDecay float64) *Adam {
	return &Adam{
		Params:      params,
		Beta1:       beta1,
		Beta2:       beta2,
		Eps:         eps,
		WeightDecay: weightDecay,
		lr:          lr,
		m:           make(map[*autograd.Param][]float64, len(params)),
		v:           make(map[*autograd.Param][]float64, len(params)),
	}
}

// Step implements Optimizer.
//
//mlperfvet:hotpath
func (a *Adam) Step() {
	a.t++
	c := tensor.AdamCoef{
		WeightDecay: a.WeightDecay,
		Beta1:       a.Beta1, OneMinusBeta1: 1 - a.Beta1,
		Beta2: a.Beta2, OneMinusBeta2: 1 - a.Beta2,
		BiasCorr1: 1 - math.Pow(a.Beta1, float64(a.t)),
		BiasCorr2: 1 - math.Pow(a.Beta2, float64(a.t)),
		LR:        a.lr, Eps: a.Eps,
	}
	for _, p := range a.Params {
		m, v := a.m[p], a.v[p]
		if m == nil {
			m, v = a.newMoments(p)
		}
		tensor.AdamUpdate(p.Value.Data, p.Grad.Data, m, v, &c)
	}
}

// newMoments creates p's zero moments, on the first Step that sees it.
func (a *Adam) newMoments(p *autograd.Param) (m, v []float64) {
	m = make([]float64, p.Value.Size())
	v = make([]float64, p.Value.Size())
	a.m[p], a.v[p] = m, v
	return m, v
}

// SetLR implements Optimizer.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.lr }

// LARS implements Layer-wise Adaptive Rate Scaling (You et al., 2017),
// which the MLPerf v0.6 rules admitted for large-batch ResNet training
// (§5). Each parameter tensor gets a local rate proportional to
// ‖w‖/(‖g‖ + wd·‖w‖), stabilizing very large minibatches.
type LARS struct {
	Params      []*autograd.Param
	Momentum    float64
	WeightDecay float64
	Eta         float64 // trust coefficient

	lr       float64
	velocity map[*autograd.Param][]float64
}

// NewLARS builds a LARS optimizer with trust coefficient eta.
func NewLARS(params []*autograd.Param, lr, momentum, weightDecay, eta float64) *LARS {
	return &LARS{
		Params:      params,
		Momentum:    momentum,
		WeightDecay: weightDecay,
		Eta:         eta,
		lr:          lr,
		velocity:    make(map[*autograd.Param][]float64, len(params)),
	}
}

// Step implements Optimizer.
func (l *LARS) Step() {
	for _, p := range l.Params {
		v := l.velocity[p]
		if v == nil {
			v = make([]float64, p.Value.Size())
			l.velocity[p] = v
		}
		wNorm := p.Value.Norm2()
		gNorm := p.Grad.Norm2()
		local := 1.0
		if wNorm > 0 && gNorm > 0 {
			local = l.Eta * wNorm / (gNorm + l.WeightDecay*wNorm)
		}
		rate := l.lr * local
		for i := range p.Value.Data {
			g := p.Grad.Data[i] + l.WeightDecay*p.Value.Data[i]
			v[i] = l.Momentum*v[i] + rate*g
			p.Value.Data[i] -= v[i]
		}
	}
}

// SetLR implements Optimizer.
func (l *LARS) SetLR(lr float64) { l.lr = lr }

// LR implements Optimizer.
func (l *LARS) LR() float64 { return l.lr }
