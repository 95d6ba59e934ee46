package models

import (
	"repro/internal/autograd"
	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// GNMT is the recurrent translation benchmark (§3.1.3): an LSTM
// encoder-decoder with Luong-style multiplicative attention and residual
// connections between stacked layers, the structural skeleton of Wu et al.
// (2016) at reduced width/depth.
type GNMT struct {
	Embed   *nn.Embedding
	Encoder *nn.StackedLSTM
	Decoder *nn.StackedLSTM
	// AttnCombine mixes [decoder state ; attention context] into the
	// attentional hidden state (Luong's Wc).
	AttnCombine *nn.Linear
	Proj        *nn.Linear
	Hidden      int
}

// NewGNMT builds the model.
func NewGNMT(vocab, embed, hidden, layers int, rng *tensor.RNG) *GNMT {
	return &GNMT{
		Embed:       nn.NewEmbedding("embed", vocab, embed, rng),
		Encoder:     nn.NewStackedLSTM("enc", embed, hidden, layers, true, rng),
		Decoder:     nn.NewStackedLSTM("dec", embed, hidden, layers, true, rng),
		AttnCombine: nn.NewLinearXavier("attn_c", 2*hidden, hidden, true, rng),
		Proj:        nn.NewLinearXavier("proj", hidden, vocab, true, rng),
		Hidden:      hidden,
	}
}

// Params implements nn.Module.
func (m *GNMT) Params() []*autograd.Param {
	return nn.CollectParams(m.Embed, m.Encoder, m.Decoder, m.AttnCombine, m.Proj)
}

// gnmtPass is the scratch one GNMT forward runs on: both stacks' per-layer
// states, which the LSTM steps advance in place, one step's token column,
// the encoder outputs, and one decoder step's attention scores. A workload
// keeps one per kind of pass, so a warm pass allocates none of it.
type gnmtPass struct {
	b                  int
	zeroEnc, zeroDec   []nn.State // read-only zero states for batch b
	enc, dec           []nn.State
	ids                []int
	encOuts, attScores []*autograd.Var
}

// start readies p for a batch of b sentences: both stacks back at their
// zero state and no encoder output yet. The zero tensors are only read, so
// they are built again only when b changes.
func (p *gnmtPass) start(m *GNMT, b int) {
	if p.b != b || p.zeroEnc == nil {
		p.b = b
		p.zeroEnc, p.zeroDec = m.Encoder.ZeroState(b), m.Decoder.ZeroState(b)
		p.enc, p.dec = make([]nn.State, len(p.zeroEnc)), make([]nn.State, len(p.zeroDec))
		p.ids = make([]int, b)
	}
	copy(p.enc, p.zeroEnc)
	copy(p.dec, p.zeroDec)
	p.encOuts = p.encOuts[:0]
}

// encode runs the encoder over packed source ids (b rows × t cols, b as in
// p.start), leaving the top-layer output at each timestep in p.encOuts.
func (m *GNMT) encode(ctx *nn.Ctx, p *gnmtPass, src [][]int) {
	for step := range src[0] {
		for i, row := range src {
			p.ids[i] = row[step]
		}
		x := m.Embed.Forward(ctx, p.ids)
		p.encOuts = append(p.encOuts, m.Encoder.Step(ctx, x, p.enc))
	}
}

// attend computes Luong dot attention: weights over encoder outputs from
// the decoder state, then the weighted context vector.
func (m *GNMT) attend(p *gnmtPass, h *autograd.Var) *autograd.Var {
	p.attScores = p.attScores[:0]
	for _, enc := range p.encOuts {
		p.attScores = append(p.attScores, autograd.RowSum(autograd.Mul(h, enc))) // [B,1]
	}
	attn := autograd.SoftmaxRows(autograd.ConcatCols(p.attScores...)) // [B,T]
	var context *autograd.Var
	for t, enc := range p.encOuts {
		term := autograd.MulColVec(autograd.SliceCols(attn, t, t+1), enc)
		if context == nil {
			context = term
		} else {
			context = autograd.Add(context, term)
		}
	}
	return context
}

// decodeStep advances the decoder one step from the input tokens ids:
// embed them, run the stacked LSTM, attend over the encoder outputs, and
// combine. It returns the vocabulary logits.
func (m *GNMT) decodeStep(ctx *nn.Ctx, p *gnmtPass, ids []int) *autograd.Var {
	x := m.Embed.Forward(ctx, ids)
	h := m.Decoder.Step(ctx, x, p.dec)
	contextVec := m.attend(p, h)
	combined := autograd.Tanh(m.AttnCombine.Forward(ctx, autograd.ConcatCols(h, contextVec)))
	return m.Proj.Forward(ctx, combined)
}

// DefaultGNMTHParams is the reference configuration.
func DefaultGNMTHParams() MTHParams {
	return MTHParams{Batch: 16, LR: 0.01, D: 20, Heads: 1, FF: 0, Layers: 2, Warmup: 0, ClipNorm: 5}
}

// RNNTranslation is the GNMT model over the synthetic parallel corpus,
// with its optimizer: an engine model (see MicrobatchLoss).
type RNNTranslation struct {
	HP  MTHParams
	DS  *datasets.MTDataset
	Net *GNMT
	Opt opt.Optimizer

	srcLen, tgtLen int
	params         []*autograd.Param

	// The forward scratch of training (MicrobatchLoss) and of greedy
	// decoding, and the storage Evaluate reuses.
	train, decode gnmtPass
	eval          mtEval
}

// NewRNNTranslation builds the GNMT model and its optimizer. HP.D is the
// embedding width; hidden width is 2·D.
func NewRNNTranslation(ds *datasets.MTDataset, hp MTHParams, seed uint64) *RNNTranslation {
	net := NewGNMT(ds.Cfg.Vocab, hp.D, 2*hp.D, hp.Layers, tensor.NewRNG(seed).Split(1))
	params := net.Params()
	var o opt.Stateful = opt.NewAdam(params, hp.LR, 0.9, 0.999, 1e-8, 0)
	if hp.ClipNorm > 0 {
		o = &clipped{Stateful: o, params: params, maxNorm: hp.ClipNorm}
	}
	return &RNNTranslation{
		HP: hp, DS: ds, Net: net,
		Opt:    o,
		srcLen: ds.Cfg.MaxLen,
		tgtLen: ds.Cfg.MaxLen + 1,
		params: params,
	}
}

// clipped caps the global gradient norm before an optimizer's update. The
// engine hands it the all-reduced gradient of the whole model (GNMT has no
// partitioner, so it trains at one stage), so the norm is the same at
// every worker count. In the mixed regime precision.MP.Apply divides the
// loss scale out of the gradients before Step, so the clip sees the
// unscaled norm. The embedded optimizer
// answers everything else (SetLR, LR, and the opt.Stateful checkpoint
// methods).
type clipped struct {
	opt.Stateful
	params  []*autograd.Param
	maxNorm float64
}

// Step implements opt.Optimizer.
func (c *clipped) Step() {
	nn.ClipGradNorm(c.params, c.maxNorm)
	c.Stateful.Step()
}

// Params exposes the translator's trainable parameters (pipeline.Trainable
// contract).
func (w *RNNTranslation) Params() []*autograd.Param { return w.params }

// MicrobatchLoss builds the GNMT training loss for one microbatch of
// sentence-pair indices (pipeline.Trainable contract): teacher-forced
// cross-entropy averaged over the target positions.
func (w *RNNTranslation) MicrobatchLoss(tape *autograd.Tape, idx []int, rng *tensor.RNG) *autograd.Var {
	pairs := make([]datasets.MTPair, len(idx))
	for j, id := range idx {
		pairs[j] = w.DS.Train[id]
	}
	src, decIn, labels := datasets.PadBatch(pairs, w.srcLen, w.tgtLen)
	ctx := nn.NewCtx(tape, true, rng)
	p := &w.train
	p.start(w.Net, len(src))
	w.Net.encode(ctx, p, src)
	var total *autograd.Var
	for t := 0; t < w.tgtLen; t++ {
		lb := make([]int, len(decIn))
		for b := range decIn {
			p.ids[b] = decIn[b][t]
			lb[b] = labels[b][t]
		}
		stepLoss := autograd.SoftmaxCrossEntropy(w.Net.decodeStep(ctx, p, p.ids), lb)
		if total == nil {
			total = stepLoss
		} else {
			total = autograd.Add(total, stepLoss)
		}
	}
	return autograd.Scale(total, 1/float64(w.tgtLen))
}

// GreedyDecode appends the greedy translation of one source sentence to
// dst. It decodes on the workload's eval tape, which it rewinds first, so
// it is not safe for concurrent use; a warm call allocates only to grow
// dst.
func (w *RNNTranslation) GreedyDecode(dst, src []int) []int {
	e := &w.eval
	e.start(src, w.srcLen, w.tgtLen)
	p := &w.decode
	p.start(w.Net, 1)
	rows := [1][]int{e.src}
	w.Net.encode(&e.ctx, p, rows[:])
	tok := [1]int{datasets.BOS}
	for t := 0; t < w.tgtLen; t++ {
		next := argmaxRow(w.Net.decodeStep(&e.ctx, p, tok[:]).Value, 0)
		if next == datasets.EOS {
			break
		}
		dst = append(dst, next)
		tok[0] = next
	}
	return dst
}

// Evaluate is the benchmark's quality metric: corpus BLEU with greedy
// decoding.
func (w *RNNTranslation) Evaluate() float64 { return w.eval.bleu(w.DS.Val, w.GreedyDecode) }
