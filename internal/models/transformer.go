package models

import (
	"strconv"

	"repro/internal/autograd"
	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// transformerBlock is one encoder or decoder block: self-attention,
// optional cross-attention (decoder only), and a position-wise feed-forward
// network, each wrapped in residual + LayerNorm (post-norm, as in Vaswani
// et al.).
type transformerBlock struct {
	selfAttn      *nn.MultiHeadAttention
	crossAttn     *nn.MultiHeadAttention // nil in encoder blocks
	ff1, ff2      *nn.Linear
	ln1, ln2, ln3 *nn.LayerNorm
}

func newTransformerBlock(name string, d, heads, ff int, decoder bool, rng *tensor.RNG) *transformerBlock {
	b := &transformerBlock{
		selfAttn: nn.NewMultiHeadAttention(name+".self", d, heads, rng),
		ff1:      nn.NewLinear(name+".ff1", d, ff, true, rng),
		ff2:      nn.NewLinearXavier(name+".ff2", ff, d, true, rng),
		ln1:      nn.NewLayerNorm(name+".ln1", d),
		ln2:      nn.NewLayerNorm(name+".ln2", d),
	}
	if decoder {
		b.crossAttn = nn.NewMultiHeadAttention(name+".cross", d, heads, rng)
		b.ln3 = nn.NewLayerNorm(name+".ln3", d)
	}
	return b
}

// The three residual sublayers, each closed by its LayerNorm. They are the
// pipeline's units (mtUnits), and forward is their composition, so a
// serial pass and a staged pass run the same code whatever the cut.

// selfAttention is x → ln1(x + selfAttn(x)) over x [b*t, d].
func (blk *transformerBlock) selfAttention(ctx *nn.Ctx, x *autograd.Var, b, t int, causal bool) *autograd.Var {
	return blk.ln1.Forward(ctx, autograd.Add(x, blk.selfAttn.Forward(ctx, x, x, b, t, t, causal)))
}

// crossAttention is h → ln3(h + crossAttn(h, memory)): decoder blocks only.
func (blk *transformerBlock) crossAttention(ctx *nn.Ctx, h, memory *autograd.Var, b, t, tMem int) *autograd.Var {
	return blk.ln3.Forward(ctx, autograd.Add(h, blk.crossAttn.Forward(ctx, h, memory, b, t, tMem, false)))
}

// feedForward is h → ln2(h + ff2(relu(ff1(h)))).
func (blk *transformerBlock) feedForward(ctx *nn.Ctx, h *autograd.Var) *autograd.Var {
	ff := blk.ff2.Forward(ctx, autograd.ReLU(blk.ff1.Forward(ctx, h)))
	return blk.ln2.Forward(ctx, autograd.Add(h, ff))
}

// forward runs the block over x [b*t, d]; memory is the encoder output for
// decoder blocks (nil in the encoder).
func (blk *transformerBlock) forward(ctx *nn.Ctx, x, memory *autograd.Var, b, t, tMem int, causal bool) *autograd.Var {
	h := blk.selfAttention(ctx, x, b, t, causal)
	if blk.crossAttn != nil {
		h = blk.crossAttention(ctx, h, memory, b, t, tMem)
	}
	return blk.feedForward(ctx, h)
}

func (blk *transformerBlock) Params() []*autograd.Param {
	ps := nn.CollectParams(blk.selfAttn, blk.ff1, blk.ff2, blk.ln1, blk.ln2)
	if blk.crossAttn != nil {
		ps = append(ps, nn.CollectParams(blk.crossAttn, blk.ln3)...)
	}
	return ps
}

// Transformer is the non-recurrent translation benchmark (§3.1.3): an
// encoder-decoder stack of attention blocks with sinusoidal positional
// encodings and a tied output projection to vocabulary logits.
type Transformer struct {
	Embed *nn.Embedding
	enc   []*transformerBlock
	dec   []*transformerBlock
	Proj  *nn.Linear
	D     int
	Heads int
	pos   nn.Positions
}

// NewTransformer builds the model.
func NewTransformer(vocab, d, heads, ff, layers int, rng *tensor.RNG) *Transformer {
	t := &Transformer{
		Embed: nn.NewEmbedding("embed", vocab, d, rng),
		Proj:  nn.NewLinearXavier("proj", d, vocab, true, rng),
		D:     d,
		Heads: heads,
		pos:   nn.Positions{D: d},
	}
	// Scale embedding init up for attention stability.
	t.Embed.Table.Value.ScaleInPlace(100)
	for i := 0; i < layers; i++ {
		t.enc = append(t.enc, newTransformerBlock("enc"+nameIdx(i), d, heads, ff, false, rng))
		t.dec = append(t.dec, newTransformerBlock("dec"+nameIdx(i), d, heads, ff, true, rng))
	}
	return t
}

// nameIdx is a block's name suffix: ".0", ".1", ... in decimal.
func nameIdx(i int) string { return "." + strconv.Itoa(i) }

// embed looks up packed ids (b rows of length t) and adds their positions.
func (m *Transformer) embed(ctx *nn.Ctx, ids []int, b, t int) *autograd.Var {
	return m.pos.Add(m.Embed.Forward(ctx, ids), b, t)
}

// Encode embeds and encodes packed source ids (b rows of length t).
func (m *Transformer) Encode(ctx *nn.Ctx, src [][]int) *autograd.Var {
	b, t := len(src), len(src[0])
	flat := make([]int, 0, b*t)
	for _, row := range src {
		flat = append(flat, row...)
	}
	h := m.embed(ctx, flat, b, t)
	for _, blk := range m.enc {
		h = blk.forward(ctx, h, nil, b, t, 0, false)
	}
	return h
}

// Decode runs the decoder over packed target-input ids given encoder
// memory, returning vocabulary logits [b*t, vocab].
func (m *Transformer) Decode(ctx *nn.Ctx, decIn [][]int, memory *autograd.Var, tMem int) *autograd.Var {
	b, t := len(decIn), len(decIn[0])
	flat := make([]int, 0, b*t)
	for _, row := range decIn {
		flat = append(flat, row...)
	}
	h := m.embed(ctx, flat, b, t)
	for _, blk := range m.dec {
		h = blk.forward(ctx, h, memory, b, t, tMem, true)
	}
	return m.Proj.Forward(ctx, h)
}

// Params implements nn.Module.
func (m *Transformer) Params() []*autograd.Param {
	ps := nn.CollectParams(m.Embed, m.Proj)
	for _, blk := range m.enc {
		ps = append(ps, blk.Params()...)
	}
	for _, blk := range m.dec {
		ps = append(ps, blk.Params()...)
	}
	return ps
}

// MTHParams are the tunables shared by both translation benchmarks.
type MTHParams struct {
	Batch  int
	LR     float64
	D      int
	Heads  int
	FF     int
	Layers int
	Warmup int
	// ClipNorm caps the global gradient norm (0 disables). GNMT's own
	// loop clips; the engine that trains the Transformer does not.
	ClipNorm float64
}

// DefaultTransformerHParams is the reference configuration.
func DefaultTransformerHParams() MTHParams {
	return MTHParams{Batch: 16, LR: 0.05, D: 24, Heads: 2, FF: 48, Layers: 2, Warmup: 100}
}

// Translation is the Transformer model over the synthetic parallel corpus,
// with its optimizer and LR schedule: an engine model (see MicrobatchLoss
// and PipelineStages).
type Translation struct {
	HP    MTHParams
	DS    *datasets.MTDataset
	Net   *Transformer
	Opt   opt.Optimizer
	Sched opt.Schedule

	srcLen, tgtLen int
	params         []*autograd.Param

	// Reused microbatch id buffers (MicrobatchLoss).
	mbSrc, mbDec, mbLab []int
}

// mtOptimizer builds the translation benchmark optimizer for a parameter
// list (factored out for per-stage pipeline optimizers; see imageOptimizer).
func mtOptimizer(hp MTHParams, params []*autograd.Param) opt.Optimizer {
	return opt.NewAdam(params, hp.LR, 0.9, 0.98, 1e-9, 0)
}

// NewTranslation builds the Transformer, its optimizer and its LR schedule.
func NewTranslation(ds *datasets.MTDataset, hp MTHParams, seed uint64) *Translation {
	net := NewTransformer(ds.Cfg.Vocab, hp.D, hp.Heads, hp.FF, hp.Layers, tensor.NewRNG(seed).Split(1))
	params := net.Params()
	return &Translation{
		HP: hp, DS: ds, Net: net,
		Opt:    mtOptimizer(hp, params),
		Sched:  opt.InverseSqrt{Base: hp.LR, WarmupSteps: hp.Warmup},
		srcLen: ds.Cfg.MaxLen,
		tgtLen: ds.Cfg.MaxLen + 1, // room for EOS
		params: params,
	}
}

// GreedyDecode translates one source sentence by greedy argmax decoding.
func (w *Translation) GreedyDecode(src []int) []int {
	padded := make([]int, w.srcLen)
	copy(padded, src)
	ctx := nn.NewCtx(autograd.NewTape(), false, nil)
	memory := w.Net.Encode(ctx, [][]int{padded})
	decIn := make([]int, w.tgtLen)
	decIn[0] = datasets.BOS
	var out []int
	for t := 0; t < w.tgtLen; t++ {
		logits := w.Net.Decode(ctx, [][]int{decIn}, memory, w.srcLen)
		next := argmaxRow(logits.Value, t)
		if next == datasets.EOS {
			break
		}
		out = append(out, next)
		if t+1 < w.tgtLen {
			decIn[t+1] = next
		}
	}
	return out
}

func argmaxRow(t *tensor.Tensor, row int) int {
	m := t.Shape[1]
	best, bi := t.Data[row*m], 0
	for j := 1; j < m; j++ {
		if v := t.Data[row*m+j]; v > best {
			best, bi = v, j
		}
	}
	return bi
}

// Evaluate is the benchmark's quality metric: corpus BLEU on the
// validation split with greedy decoding.
func (w *Translation) Evaluate() float64 {
	var cands, refs [][]int
	for _, p := range w.DS.Val {
		cands = append(cands, w.GreedyDecode(p.Src))
		ref := append([]int(nil), p.Tgt...)
		// Strip EOS from the reference for BLEU.
		if len(ref) > 0 && ref[len(ref)-1] == datasets.EOS {
			ref = ref[:len(ref)-1]
		}
		refs = append(refs, ref)
	}
	return metrics.BLEU(cands, refs)
}
