package models

import (
	"fmt"

	"repro/internal/autograd"
	"repro/internal/data"
	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/precision"
	"repro/internal/tensor"
)

// NCF is Neural Collaborative Filtering (He et al., 2017b), the
// recommendation benchmark of §3.1.5: a NeuMF model fusing a generalized
// matrix factorization (GMF) branch with an MLP branch over user/item
// embeddings, trained with binary cross-entropy on implicit feedback.
type NCF struct {
	UserGMF, ItemGMF *nn.Embedding
	UserMLP, ItemMLP *nn.Embedding
	MLP              *nn.MLP
	Out              *nn.Linear
}

// NewNCF builds the NeuMF network.
func NewNCF(users, items, gmfDim, mlpDim int, rng *tensor.RNG) *NCF {
	return &NCF{
		UserGMF: nn.NewEmbedding("user_gmf", users, gmfDim, rng),
		ItemGMF: nn.NewEmbedding("item_gmf", items, gmfDim, rng),
		UserMLP: nn.NewEmbedding("user_mlp", users, mlpDim, rng),
		ItemMLP: nn.NewEmbedding("item_mlp", items, mlpDim, rng),
		MLP:     nn.NewMLP("mlp", []int{2 * mlpDim, 2 * mlpDim, mlpDim}, rng),
		Out:     nn.NewLinearXavier("out", gmfDim+mlpDim, 1, true, rng),
	}
}

// Forward returns interaction logits [n,1] for parallel user/item id lists.
func (m *NCF) Forward(ctx *nn.Ctx, users, items []int) *autograd.Var {
	gmf := autograd.Mul(m.UserGMF.Forward(ctx, users), m.ItemGMF.Forward(ctx, items))
	mlpIn := autograd.ConcatCols(m.UserMLP.Forward(ctx, users), m.ItemMLP.Forward(ctx, items))
	mlp := autograd.ReLU(m.MLP.Forward(ctx, mlpIn))
	return m.Out.Forward(ctx, autograd.ConcatCols(gmf, mlp))
}

// Params implements nn.Module.
func (m *NCF) Params() []*autograd.Param {
	return nn.CollectParams(m.UserGMF, m.ItemGMF, m.UserMLP, m.ItemMLP, m.MLP, m.Out)
}

// NCFHParams are the tunables of the recommendation benchmark.
type NCFHParams struct {
	Batch    int
	LR       float64
	GMFDim   int
	MLPDim   int
	NegRatio int // negatives sampled per positive during training
	EvalNegs int // negatives per user in HR@10 evaluation (99 in the paper)

	// Numerics selects the training compute regime (§2.2.3). The zero
	// value is the full-precision float64 reference path, bit-identical
	// to pre-numerics behavior. Evaluation always runs in float64.
	Numerics precision.Numerics
}

// DefaultNCFHParams is the reference configuration.
func DefaultNCFHParams() NCFHParams {
	return NCFHParams{Batch: 64, LR: 0.002, GMFDim: 8, MLPDim: 8, NegRatio: 4, EvalNegs: 99}
}

// Recommendation is the NCF workload over the fractal-expansion dataset.
type Recommendation struct {
	HP  NCFHParams
	DS  *datasets.RecDataset
	Net *NCF
	Opt opt.Optimizer

	params []*autograd.Param
	loader *data.Loader
	rng    *tensor.RNG
	seed   uint64
	epoch  int
	steps  int

	// Steady-state reuse: one persistent tape plus batch-assembly buffers,
	// so warm training steps allocate nothing.
	tape    *autograd.Tape
	ctx     nn.Ctx
	busers  []int
	bitems  []int
	blabels []float64

	mp *precision.MP // mixed-precision trainer; nil in non-mixed regimes
}

// NewRecommendation builds the workload.
func NewRecommendation(ds *datasets.RecDataset, hp NCFHParams, seed uint64) *Recommendation {
	rng := tensor.NewRNG(seed)
	net := NewNCF(ds.Users, ds.Items, hp.GMFDim, hp.MLPDim, rng.Split(1))
	params := net.Params()
	w := &Recommendation{
		HP: hp, DS: ds, Net: net,
		Opt:    opt.NewAdam(params, hp.LR, 0.9, 0.999, 1e-8, 0),
		params: params,
		loader: data.NewLoader(len(ds.Train), hp.Batch, rng.Split(2)),
		rng:    rng.Split(3),
		seed:   seed,
		tape:   autograd.NewTape(),
		mp:     hp.Numerics.NewTrainer(params),
	}
	w.tape.SetDType(hp.Numerics.Compute)
	return w
}

// Name implements Workload.
func (w *Recommendation) Name() string { return "recommendation" }

// Epoch implements Workload.
func (w *Recommendation) Epoch() int { return w.epoch }

// Steps implements StepCounter.
func (w *Recommendation) Steps() int { return w.steps }

// TrainEpoch implements Workload.
func (w *Recommendation) TrainEpoch() float64 {
	totalLoss, n := 0.0, 0
	for i := 0; i < w.loader.StepsPerEpoch(); i++ {
		idx, _ := w.loader.Next()
		w.busers, w.bitems, w.blabels = w.DS.AppendTrainBatch(
			w.busers[:0], w.bitems[:0], w.blabels[:0], idx, w.HP.NegRatio, w.rng)
		users, items, labels := w.busers, w.bitems, w.blabels
		loss := trainStepMP(w.tape, w.params, w.Opt, w.mp, func(tape *autograd.Tape) *autograd.Var {
			ctx := nn.NewCtx(tape, true, w.rng)
			logits := w.Net.Forward(ctx, users, items)
			return autograd.BCEWithLogits(logits, labels)
		}, nil)
		totalLoss += loss
		n++
		w.steps++
	}
	w.epoch++
	return totalLoss / float64(n)
}

// ncfSampleRNG labels the negative-sampling stream in checkpoints.
const ncfSampleRNG = "ncf_negative_sampling"

// CaptureTrainState snapshots the full mid-run training state: parameters,
// Adam moments, the loss-scale position (mixed regimes), the loader
// cursor, the negative-sampling stream, and the step/epoch counters. A run
// restored from the result continues bit-identically to this one.
func (w *Recommendation) CaptureTrainState() *TrainState {
	st := &TrainState{
		Step:   w.steps,
		Epoch:  w.epoch,
		Params: TakeSnapshot(w.Name(), w.params),
		Loader: ptr(w.loader.State()),
		RNGs:   []RNGEntry{{Label: ncfSampleRNG, State: w.rng.State()}},
	}
	if o, ok := w.Opt.(opt.Stateful); ok {
		st.Opts = []opt.State{o.CaptureState()}
	}
	if w.mp != nil {
		st.MP = ptr(w.mp.State())
	}
	return st
}

// RestoreTrainState installs a state captured by CaptureTrainState on a
// freshly built workload of the same seed and hyperparameters. It checks
// all of the state before it writes any of it, so a refused state leaves
// the workload exactly as it was and the caller can fall back to an older
// one.
func (w *Recommendation) RestoreTrainState(st *TrainState) error {
	if st.Params == nil {
		return fmt.Errorf("models: train state has no parameter snapshot")
	}
	if err := st.Params.Check(w.params); err != nil {
		return err
	}
	if len(st.Opts) != 1 {
		return fmt.Errorf("models: train state has %d optimizer states, recommendation wants 1", len(st.Opts))
	}
	o, ok := w.Opt.(opt.Stateful)
	if !ok {
		return fmt.Errorf("models: recommendation optimizer %T cannot restore state", w.Opt)
	}
	if err := o.CheckState(st.Opts[0]); err != nil {
		return err
	}
	if (st.MP != nil) != (w.mp != nil) {
		return fmt.Errorf("models: train state mixed-precision presence %v != workload %v", st.MP != nil, w.mp != nil)
	}
	if st.Loader == nil {
		return fmt.Errorf("models: train state has no loader position")
	}
	rs, err := st.rngNamed(ncfSampleRNG)
	if err != nil {
		return err
	}
	// The loader validates its position before it takes it: the last thing
	// that can refuse, and the first write.
	if err := w.loader.SetState(*st.Loader); err != nil {
		return err
	}
	if err := st.Params.Restore(w.params); err != nil {
		return err
	}
	if err := o.RestoreState(st.Opts[0]); err != nil {
		return err
	}
	if st.MP != nil {
		w.mp.SetState(*st.MP)
	}
	w.rng.SetState(rs)
	w.steps = st.Step
	w.epoch = st.Epoch
	return nil
}

// ptr boxes a value (checkpoint-state convenience).
func ptr[T any](v T) *T { return &v }

// Evaluate implements Workload: leave-one-out HR@10. The evaluation
// negative lists are drawn from a fixed seed so the metric is comparable
// across epochs and runs.
func (w *Recommendation) Evaluate() float64 {
	evalRNG := tensor.NewRNG(w.seed ^ 0xE7A1)
	users, candidates := w.DS.EvalLists(w.HP.EvalNegs, evalRNG)
	scores := make([][]float64, len(users))
	tape := autograd.NewTape()
	ctx := nn.NewCtx(tape, false, w.rng)
	for i, u := range users {
		cand := candidates[i]
		us := make([]int, len(cand))
		for j := range us {
			us[j] = u
		}
		logits := w.Net.Forward(ctx, us, cand)
		scores[i] = append([]float64(nil), logits.Value.Data...)
	}
	return metrics.HitRateAtK(scores, 10)
}
