package opt

import "math"

// Schedule maps a global step (or epoch) index to a learning rate. MLPerf
// rules treat the schedule as a restricted hyperparameter (§3.4): it may be
// adjusted only to accommodate the chosen minibatch size.
type Schedule interface {
	At(step int) float64
}

// ApplySchedule sets an optimizer's learning rate from a schedule at the
// given global step; a nil schedule leaves the rate unchanged. Both the
// serial training loops (internal/models) and the training engine
// (internal/pipeline) drive their optimizers through this helper, so a
// schedule change applies identically on either path.
func ApplySchedule(o Optimizer, s Schedule, step int) {
	if s != nil {
		o.SetLR(s.At(step))
	}
}

// Constant is a fixed learning rate.
type Constant float64

// At implements Schedule.
func (c Constant) At(int) float64 { return float64(c) }

// Step decays the base rate by Factor at each boundary (the classic
// ResNet "divide by 10 at epochs 30/60/80" schedule).
type Step struct {
	Base       float64
	Boundaries []int
	Factor     float64
}

// At implements Schedule.
func (s Step) At(step int) float64 {
	lr := s.Base
	for _, b := range s.Boundaries {
		if step >= b {
			lr *= s.Factor
		}
	}
	return lr
}

// Cosine anneals from Base to Floor over Total steps.
type Cosine struct {
	Base, Floor float64
	Total       int
}

// At implements Schedule.
func (c Cosine) At(step int) float64 {
	if step >= c.Total {
		return c.Floor
	}
	t := float64(step) / float64(c.Total)
	return c.Floor + 0.5*(c.Base-c.Floor)*(1+math.Cos(math.Pi*t))
}

// Warmup wraps another schedule with a linear ramp from 0 over WarmupSteps
// — the standard companion to large-batch linear scaling (Goyal et al.).
type Warmup struct {
	Inner       Schedule
	WarmupSteps int
}

// At implements Schedule.
func (w Warmup) At(step int) float64 {
	base := w.Inner.At(step)
	if step < w.WarmupSteps && w.WarmupSteps > 0 {
		return base * float64(step+1) / float64(w.WarmupSteps)
	}
	return base
}

// LinearScaled applies the linear scaling rule of §3.4: the learning rate
// grows linearly with the minibatch size relative to a reference batch
// (Goyal et al., 2017: "increase the learning rate linearly with the
// minibatch size").
func LinearScaled(baseLR float64, batch, refBatch int) float64 {
	return baseLR * float64(batch) / float64(refBatch)
}

// InverseSqrt is the Transformer schedule: lr = base · min(s^-1/2, s·w^-3/2)
// with warmup w (Vaswani et al., 2017).
type InverseSqrt struct {
	Base        float64
	WarmupSteps int
}

// At implements Schedule.
func (s InverseSqrt) At(step int) float64 {
	t := float64(step + 1)
	w := float64(s.WarmupSteps)
	if w <= 0 {
		w = 1
	}
	return s.Base * math.Min(1/math.Sqrt(t), t/math.Pow(w, 1.5))
}
