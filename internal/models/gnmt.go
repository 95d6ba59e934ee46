package models

import (
	"repro/internal/autograd"
	"repro/internal/datasets"
	"repro/internal/metrics"
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

// Encode runs the encoder over packed source ids (b rows × t cols),
// returning the top-layer output at each timestep.
func (m *GNMT) Encode(ctx *nn.Ctx, src [][]int) []*autograd.Var {
	b, t := len(src), len(src[0])
	states := m.Encoder.ZeroState(b)
	outs := make([]*autograd.Var, t)
	for step := 0; step < t; step++ {
		ids := make([]int, b)
		for i := 0; i < b; i++ {
			ids[i] = src[i][step]
		}
		x := m.Embed.Forward(ctx, ids)
		outs[step], states = m.Encoder.Step(ctx, x, states)
	}
	return outs
}

// attend computes Luong dot attention: weights over encoder outputs from
// the decoder state, then the weighted context vector.
func (m *GNMT) attend(ctx *nn.Ctx, h *autograd.Var, encOuts []*autograd.Var) *autograd.Var {
	scores := make([]*autograd.Var, len(encOuts))
	for t, enc := range encOuts {
		scores[t] = autograd.RowSum(autograd.Mul(h, enc)) // [B,1]
	}
	attn := autograd.SoftmaxRows(autograd.ConcatCols(scores...)) // [B,T]
	var context *autograd.Var
	for t, enc := range encOuts {
		term := autograd.MulColVec(autograd.SliceCols(attn, t, t+1), enc)
		if context == nil {
			context = term
		} else {
			context = autograd.Add(context, term)
		}
	}
	return context
}

// DecodeStep advances the decoder one step: embed the input token, run the
// stacked LSTM, attend over the encoder outputs, and combine.
func (m *GNMT) DecodeStep(ctx *nn.Ctx, ids []int, states []nn.State, encOuts []*autograd.Var) (*autograd.Var, []nn.State) {
	x := m.Embed.Forward(ctx, ids)
	h, next := m.Decoder.Step(ctx, x, states)
	contextVec := m.attend(ctx, h, encOuts)
	combined := autograd.Tanh(m.AttnCombine.Forward(ctx, autograd.ConcatCols(h, contextVec)))
	return m.Proj.Forward(ctx, combined), next
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
	encOuts := w.Net.Encode(ctx, src)
	states := w.Net.Decoder.ZeroState(len(src))
	var total *autograd.Var
	for t := 0; t < w.tgtLen; t++ {
		ids := make([]int, len(decIn))
		lb := make([]int, len(decIn))
		for b := range decIn {
			ids[b] = decIn[b][t]
			lb[b] = labels[b][t]
		}
		var logits *autograd.Var
		logits, states = w.Net.DecodeStep(ctx, ids, states, encOuts)
		stepLoss := autograd.SoftmaxCrossEntropy(logits, lb)
		if total == nil {
			total = stepLoss
		} else {
			total = autograd.Add(total, stepLoss)
		}
	}
	return autograd.Scale(total, 1/float64(w.tgtLen))
}

// GreedyDecode translates one source sentence by greedy decoding.
func (w *RNNTranslation) GreedyDecode(src []int) []int {
	padded := make([]int, w.srcLen)
	copy(padded, src)
	tape := autograd.NewTape()
	ctx := nn.NewCtx(tape, false, nil)
	encOuts := w.Net.Encode(ctx, [][]int{padded})
	states := w.Net.Decoder.ZeroState(1)
	cur := datasets.BOS
	var out []int
	for t := 0; t < w.tgtLen; t++ {
		var logits *autograd.Var
		logits, states = w.Net.DecodeStep(ctx, []int{cur}, states, encOuts)
		next := argmaxRow(logits.Value, 0)
		if next == datasets.EOS {
			break
		}
		out = append(out, next)
		cur = next
	}
	return out
}

// Evaluate is the benchmark's quality metric: corpus BLEU with greedy
// decoding.
func (w *RNNTranslation) Evaluate() float64 {
	var cands, refs [][]int
	for _, p := range w.DS.Val {
		cands = append(cands, w.GreedyDecode(p.Src))
		ref := append([]int(nil), p.Tgt...)
		if len(ref) > 0 && ref[len(ref)-1] == datasets.EOS {
			ref = ref[:len(ref)-1]
		}
		refs = append(refs, ref)
	}
	return metrics.BLEU(cands, refs)
}
