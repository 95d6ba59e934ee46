package models

import (
	"math"

	"repro/internal/autograd"
	"repro/internal/goboard"
	"repro/internal/mcts"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// MiniGoNet is the dual-head policy/value network of the reinforcement-
// learning benchmark (§3.1.4): a small convolutional trunk with a policy
// head over all moves (board points + pass) and a tanh value head, as in
// AlphaGo Zero / MiniGo.
type MiniGoNet struct {
	trunk1 *nn.Conv2d
	bn1    *nn.BatchNorm2d
	block  *residualBlock
	// Policy head.
	polConv *nn.Conv2d
	polBN   *nn.BatchNorm2d
	polFC   *nn.Linear
	// Value head.
	valConv *nn.Conv2d
	valBN   *nn.BatchNorm2d
	valFC1  *nn.Linear
	valFC2  *nn.Linear
	Size    int
}

// NewMiniGoNet builds the network for a size×size board.
func NewMiniGoNet(size, width int, rng *tensor.RNG) *MiniGoNet {
	n := size * size
	return &MiniGoNet{
		trunk1:  nn.NewConv2d("mg.trunk", 3, width, 3, 1, 1, false, rng),
		bn1:     nn.NewBatchNorm2d("mg.bn1", width),
		block:   newResidualBlock("mg.res", width, width, 1, rng),
		polConv: nn.NewConv2d("mg.pconv", width, 2, 1, 1, 0, true, rng),
		polBN:   nn.NewBatchNorm2d("mg.pbn", 2),
		polFC:   nn.NewLinearXavier("mg.pfc", 2*n, n+1, true, rng),
		valConv: nn.NewConv2d("mg.vconv", width, 1, 1, 1, 0, true, rng),
		valBN:   nn.NewBatchNorm2d("mg.vbn", 1),
		valFC1:  nn.NewLinear("mg.vfc1", n, 16, true, rng),
		valFC2:  nn.NewLinearXavier("mg.vfc2", 16, 1, true, rng),
		Size:    size,
	}
}

// Forward maps feature planes [B, 3, S, S] to policy logits [B, S²+1] and
// value [B, 1] (pre-tanh applied).
func (m *MiniGoNet) Forward(ctx *nn.Ctx, x *autograd.Var) (policy, value *autograd.Var) {
	h := autograd.ReLU(m.bn1.Forward(ctx, m.trunk1.Forward(ctx, x)))
	h = m.block.forward(ctx, h)
	n := m.Size * m.Size
	b := x.Value.Shape[0]
	p := autograd.ReLU(m.polBN.Forward(ctx, m.polConv.Forward(ctx, h)))
	policy = m.polFC.Forward(ctx, autograd.Reshape(p, b, 2*n))
	v := autograd.ReLU(m.valBN.Forward(ctx, m.valConv.Forward(ctx, h)))
	v = autograd.ReLU(m.valFC1.Forward(ctx, autograd.Reshape(v, b, n)))
	value = autograd.Tanh(m.valFC2.Forward(ctx, v))
	return policy, value
}

// Params implements nn.Module.
func (m *MiniGoNet) Params() []*autograd.Param {
	ps := nn.CollectParams(m.trunk1, m.bn1)
	ps = append(ps, m.block.Params()...)
	return append(ps, nn.CollectParams(m.polConv, m.polBN, m.polFC, m.valConv, m.valBN, m.valFC1, m.valFC2)...)
}

// netEvaluator adapts MiniGoNet to the mcts.Evaluator interface. As in
// AlphaGo (Silver et al., 2016), the position value blends the value head
// with a fast position-evaluation signal (here the area score, playing the
// role of rollouts) — this keeps early self-play search meaningful while
// the value head is still untrained.
type netEvaluator struct {
	net *MiniGoNet
	rng *tensor.RNG
	// mix is the weight of the value head vs. the score signal (0.5 in
	// AlphaGo's value/rollout blend).
	mix  float64
	komi float64
}

// Evaluate implements mcts.Evaluator.
func (e *netEvaluator) Evaluate(b *goboard.Board) ([]float64, float64) {
	feats := b.Features()
	x := tensor.FromSlice(feats, 1, 3, b.Size, b.Size)
	tape := autograd.NewTape()
	ctx := nn.NewCtx(tape, false, e.rng)
	policy, value := e.net.Forward(ctx, autograd.Const(x))
	// Softmax the policy logits.
	probs := make([]float64, policy.Value.Size())
	mx := policy.Value.Max()
	s := 0.0
	for i, v := range policy.Value.Data {
		probs[i] = math.Exp(v - mx)
		s += probs[i]
	}
	for i := range probs {
		probs[i] /= s
	}
	// Suppress the pass prior while the board is mostly open, mirroring the
	// oracle: passing early floods the replay buffer with degenerate
	// "pass" targets and collapses the policy head.
	if b.MoveCount < b.Size*b.Size {
		probs[b.Pass()] *= 0.05
	}
	scoreV := math.Tanh(b.Score(e.komi) / float64(b.Size))
	if b.ToMove == goboard.White {
		scoreV = -scoreV
	}
	v := e.mix*value.Value.Data[0] + (1-e.mix)*scoreV
	return probs, v
}

// MiniGoHParams are the tunables of the reinforcement-learning benchmark.
type MiniGoHParams struct {
	BoardSize     int
	Width         int
	LR            float64
	Momentum      float64
	GamesPerEpoch int
	Sims          int // MCTS simulations per self-play move
	TrainBatch    int
	// OracleSims is the search depth of the reference-move oracle.
	OracleSims  int
	OracleGames int // games used to harvest evaluation positions
	MaxMoves    int
	// ReplayCap bounds the self-play replay buffer (positions).
	ReplayCap int
}

// DefaultMiniGoHParams is the reference configuration. The paper plays 9×9;
// that board is supported (and benchmarked), while the default harness runs
// a smaller board so laptop-scale suite runs stay affordable — the paper's
// own affordability goal.
func DefaultMiniGoHParams() MiniGoHParams {
	return MiniGoHParams{
		BoardSize: 5, Width: 8, LR: 0.05, Momentum: 0.9,
		GamesPerEpoch: 8, Sims: 48, TrainBatch: 32,
		OracleSims: 96, OracleGames: 4, MaxMoves: 30, ReplayCap: 512,
	}
}

// replayExample is one self-play training example.
type replayExample struct {
	feats  []float64
	policy []float64
	value  float64
}

// ReinforcementLearning is the MiniGo workload: self-play data generation
// with MCTS (the defining compute profile of §3.1.4 — training data comes
// from model forward passes, not a fixed dataset), gradient updates on the
// replay buffer, and quality measured as the fraction of oracle reference
// moves the raw policy predicts.
type ReinforcementLearning struct {
	HP  MiniGoHParams
	Net *MiniGoNet
	Opt opt.Optimizer

	evalFeats [][]float64
	evalMoves []int

	replay []replayExample
	params []*autograd.Param
	rng    *tensor.RNG
	epoch  int
}

// NewReinforcementLearning builds the workload and generates the oracle
// reference positions (the stand-in for the paper's human pro games —
// dataset preparation, excluded from timing per §3.2.1).
func NewReinforcementLearning(hp MiniGoHParams, seed uint64) *ReinforcementLearning {
	rng := tensor.NewRNG(seed)
	net := NewMiniGoNet(hp.BoardSize, hp.Width, rng.Split(1))
	params := net.Params()
	w := &ReinforcementLearning{
		HP: hp, Net: net,
		Opt:    opt.NewSGD(params, hp.LR, hp.Momentum, 1e-4, opt.TorchStyle),
		params: params,
		rng:    rng.Split(2),
	}
	// Oracle reference games come from a fixed seed independent of the run
	// seed: every run predicts the same reference moves, as with a shared
	// human-games dataset.
	oracleCfg := mcts.Config{Sims: hp.OracleSims, CPuct: 1.4, Komi: 6.5}
	oracle := mcts.New(oracleCfg, mcts.TacticalEvaluator{Komi: 6.5}, tensor.NewRNG(0xC0FFEE))
	for g := 0; g < hp.OracleGames; g++ {
		rec := mcts.SelfPlay(oracle, hp.BoardSize, 2, hp.MaxMoves)
		for i := range rec.Features {
			w.evalFeats = append(w.evalFeats, rec.Features[i])
			w.evalMoves = append(w.evalMoves, rec.Moves[i])
		}
	}
	return w
}

// Epoch implements Workload.
func (w *ReinforcementLearning) Epoch() int { return w.epoch }

// TrainEpoch implements Workload: GamesPerEpoch self-play games are added
// to the replay buffer, then one pass of gradient steps runs over it.
func (w *ReinforcementLearning) TrainEpoch() float64 {
	cfg := mcts.Config{Sims: w.HP.Sims, CPuct: 1.4, Komi: 6.5, DirichletEps: 0.15, DirichletAlpha: 0.7}
	search := mcts.New(cfg, &netEvaluator{net: w.Net, rng: w.rng, mix: 0.5, komi: 6.5}, w.rng.Split(uint64(w.epoch)*2+1))
	for g := 0; g < w.HP.GamesPerEpoch; g++ {
		rec := mcts.SelfPlay(search, w.HP.BoardSize, 4, w.HP.MaxMoves)
		for i := range rec.Features {
			w.replay = append(w.replay, replayExample{
				feats:  rec.Features[i],
				policy: mcts.SharpenDist(rec.Policies[i], 2),
				value:  rec.Values[i],
			})
		}
	}
	if len(w.replay) > w.HP.ReplayCap {
		w.replay = w.replay[len(w.replay)-w.HP.ReplayCap:]
	}

	s := w.HP.BoardSize
	moves := s*s + 1
	// Several optimization passes per epoch of fresh games: self-play data
	// generation dominates wall-clock, so reusing the buffer is cheap.
	var order []int
	for p := 0; p < 3; p++ {
		order = append(order, w.rng.Perm(len(w.replay))...)
	}
	totalLoss, n := 0.0, 0
	for lo := 0; lo < len(order); lo += w.HP.TrainBatch {
		hi := lo + w.HP.TrainBatch
		if hi > len(order) {
			hi = len(order)
		}
		batch := order[lo:hi]
		b := len(batch)
		x := tensor.New(b, 3, s, s)
		pol := tensor.New(b, moves)
		val := tensor.New(b, 1)
		for i, id := range batch {
			ex := w.replay[id]
			// Random dihedral symmetry per sample (8-fold augmentation).
			f, p := augmentExample(ex.feats, ex.policy, s, w.rng.Intn(8))
			copy(x.Data[i*3*s*s:(i+1)*3*s*s], f)
			copy(pol.Data[i*moves:(i+1)*moves], p)
			val.Data[i] = ex.value
		}
		loss := trainStep(w.params, w.Opt, func(tape *autograd.Tape) *autograd.Var {
			ctx := nn.NewCtx(tape, true, w.rng)
			policy, value := w.Net.Forward(ctx, autograd.Const(x))
			polLoss := autograd.SoftCrossEntropy(policy, pol)
			valLoss := autograd.MSE(value, val)
			return autograd.Add(polLoss, valLoss)
		}, nil)
		totalLoss += loss
		n++
	}
	w.epoch++
	if n == 0 {
		return 0
	}
	return totalLoss / float64(n)
}

// Evaluate implements Workload: the fraction of oracle reference moves the
// raw policy network predicts (Table 1: "40.0% pro move prediction").
func (w *ReinforcementLearning) Evaluate() float64 {
	if len(w.evalFeats) == 0 {
		return 0
	}
	s := w.HP.BoardSize
	b := len(w.evalFeats)
	x := tensor.New(b, 3, s, s)
	for i, f := range w.evalFeats {
		copy(x.Data[i*3*s*s:(i+1)*3*s*s], f)
	}
	tape := autograd.NewTape()
	ctx := nn.NewCtx(tape, false, w.rng)
	policy, _ := w.Net.Forward(ctx, autograd.Const(x))
	pred := policy.Value.ArgMaxRows()
	return metrics.MoveMatch(pred, w.evalMoves)
}

// tensorFrom wraps one feature vector as a [1,3,S,S] tensor (test helper).
func tensorFrom(feats []float64, s int) *tensor.Tensor {
	return tensor.FromSlice(append([]float64(nil), feats...), 1, 3, s, s)
}

// predictOne returns the policy argmax for a single position (test helper).
func (w *ReinforcementLearning) predictOne(x *tensor.Tensor) int {
	tape := autograd.NewTape()
	ctx := nn.NewCtx(tape, false, w.rng)
	policy, _ := w.Net.Forward(ctx, autograd.Const(x))
	return policy.Value.ArgMax()
}

// symIndex maps point (y,x) through dihedral symmetry k (0..7): three
// rotation bits plus reflection, the 8-fold augmentation MiniGo applies to
// self-play examples.
func symIndex(p, s, k int) int {
	y, x := p/s, p%s
	if k >= 4 {
		x = s - 1 - x // reflect
	}
	for r := 0; r < k%4; r++ { // rotate 90° r times
		y, x = x, s-1-y
	}
	return y*s + x
}

// augmentExample applies dihedral symmetry k to one replay example,
// returning transformed feature planes and policy target (pass is fixed).
func augmentExample(feats, policy []float64, s, k int) ([]float64, []float64) {
	if k == 0 {
		return feats, policy
	}
	n := s * s
	of := make([]float64, len(feats))
	for plane := 0; plane < 3; plane++ {
		for p := 0; p < n; p++ {
			of[plane*n+symIndex(p, s, k)] = feats[plane*n+p]
		}
	}
	op := make([]float64, len(policy))
	for p := 0; p < n; p++ {
		op[symIndex(p, s, k)] = policy[p]
	}
	op[n] = policy[n] // pass
	return of, op
}
