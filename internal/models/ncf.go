package models

import (
	"repro/internal/autograd"
	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
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
}

// DefaultNCFHParams is the reference configuration.
func DefaultNCFHParams() NCFHParams {
	return NCFHParams{Batch: 64, LR: 0.002, GMFDim: 8, MLPDim: 8, NegRatio: 4, EvalNegs: 99}
}

// Recommendation is the NCF model over the fractal-expansion dataset, with
// its optimizer: an engine model (see MicrobatchLoss).
type Recommendation struct {
	HP  NCFHParams
	DS  *datasets.RecDataset
	Net *NCF
	Opt opt.Optimizer

	params []*autograd.Param
	seed   uint64

	// Batch-assembly buffers MicrobatchLoss reuses, so a warm call
	// allocates nothing.
	ctx     nn.Ctx
	busers  []int
	bitems  []int
	blabels []float64

	eval recEval
}

// NewRecommendation builds the model and its optimizer from a run seed.
func NewRecommendation(ds *datasets.RecDataset, hp NCFHParams, seed uint64) *Recommendation {
	net := NewNCF(ds.Users, ds.Items, hp.GMFDim, hp.MLPDim, tensor.NewRNG(seed).Split(1))
	params := net.Params()
	return &Recommendation{
		HP: hp, DS: ds, Net: net,
		Opt:    opt.NewAdam(params, hp.LR, 0.9, 0.999, 1e-8, 0),
		params: params,
		seed:   seed,
	}
}

// Evaluate is the benchmark's quality metric: leave-one-out HR@10. The
// evaluation negative lists are drawn from a fixed seed so the metric is
// comparable across epochs and runs; being a pure function of that seed,
// they are drawn once, on the first call. Each user's candidates run
// forward on the model's one eval tape, so a warm call allocates nothing.
func (w *Recommendation) Evaluate() float64 {
	e := &w.eval
	if e.tape == nil {
		e.users, e.candidates = w.DS.EvalLists(w.HP.EvalNegs, tensor.NewRNG(w.seed^0xE7A1))
		e.scores = make([][]float64, len(e.users))
		e.tape = autograd.NewTape()
		e.ctx = nn.Ctx{Tape: e.tape}
	}
	for i, u := range e.users {
		cand := e.candidates[i]
		e.us = e.us[:0]
		for range cand {
			e.us = append(e.us, u)
		}
		e.tape.Reset()
		logits := w.Net.Forward(&e.ctx, e.us, cand)
		e.scores[i] = append(e.scores[i][:0], logits.Value.Data...)
	}
	return metrics.HitRateAtK(e.scores, 10)
}

// recEval is the storage Evaluate reuses across calls: the eval users and
// their candidate lists, the user-id column of one forward, the score rows
// HR@10 ranks, and the tape each user's forward runs on.
type recEval struct {
	users      []int
	candidates [][]int
	us         []int
	scores     [][]float64
	tape       *autograd.Tape
	ctx        nn.Ctx
}
