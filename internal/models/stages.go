package models

// Staged partitioners: the internal/pipeline engine trains a model split
// into S contiguous stages, each owning a disjoint slice of the layers.
// The types below satisfy pipeline.Stage structurally (no import needed,
// like the pipeline.Trainable adapters in microbatch.go): Forward runs one
// stage's segment over one microbatch, wiring upstream boundary
// activations (differentiable leaves supplied by the engine) through the
// stage's layers and returning the boundary payload for the next stage.
// The final stage returns the microbatch mean loss as its single output.
//
// Cuts are placed at unit boundaries (ResNet: blocks; Transformer: the
// residual sublayers inside its blocks) by a cost-balanced contiguous
// partition (balancedSplit), so no layer — and no parameter — spans two
// stages. Each stage gets its own optimizer built with the workload's
// hyperparameters; the optimizers are elementwise, so S per-stage
// instances update exactly like one serial instance over all parameters.

import (
	"fmt"

	"repro/internal/autograd"
	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// balancedSplit partitions n contiguous unit costs into s groups minimizing
// the maximum group cost (the pipeline's bottleneck stage). It returns s+1
// cut indices with cuts[0] = 0 and cuts[s] = n.
func balancedSplit(costs []float64, s int) ([]int, error) {
	n := len(costs)
	if s < 1 {
		return nil, fmt.Errorf("models: %d pipeline stages < 1", s)
	}
	if s > n {
		return nil, fmt.Errorf("models: %d pipeline stages exceed the model's %d splittable units", s, n)
	}
	prefix := make([]float64, n+1)
	for i, c := range costs {
		prefix[i+1] = prefix[i] + c
	}
	sum := func(lo, hi int) float64 { return prefix[hi] - prefix[lo] }

	// f[j][i]: minimal bottleneck cost partitioning units [0, i) into j
	// groups; choice[j][i] records the last cut for reconstruction.
	const inf = 1e300
	f := make([][]float64, s+1)
	choice := make([][]int, s+1)
	for j := range f {
		f[j] = make([]float64, n+1)
		choice[j] = make([]int, n+1)
		for i := range f[j] {
			f[j][i] = inf
		}
	}
	f[0][0] = 0
	for j := 1; j <= s; j++ {
		for i := j; i <= n; i++ {
			for k := j - 1; k < i; k++ {
				if f[j-1][k] >= inf {
					continue
				}
				c := f[j-1][k]
				if g := sum(k, i); g > c {
					c = g
				}
				if c < f[j][i] {
					f[j][i] = c
					choice[j][i] = k
				}
			}
		}
	}
	cuts := make([]int, s+1)
	cuts[s] = n
	for j := s; j > 0; j-- {
		cuts[j-1] = choice[j][cuts[j]]
	}
	return cuts, nil
}

// ---------------------------------------------------------------------------
// ResNet stages
// ---------------------------------------------------------------------------

type imageUnitKind uint8

const (
	imgStem imageUnitKind = iota // stem conv + BN + ReLU
	imgBlock
	imgHead // global average pool + classifier (+ loss)
)

type imageUnit struct {
	kind imageUnitKind
	blk  *residualBlock
}

// imageUnits enumerates the classifier's splittable blocks in forward
// order, with per-unit compute-cost estimates (conv MACs at the dataset's
// spatial size) for the balanced cut.
func imageUnits(net *ResNet, size int) ([]imageUnit, []float64) {
	convCost := func(c *nn.Conv2d, hin int) (float64, int) {
		f, ci, k := c.W.Value.Shape[0], c.W.Value.Shape[1], c.W.Value.Shape[2]
		ho := tensor.ConvOut(hin, k, c.Stride, c.Pad)
		return float64(ho * ho * ci * k * k * f), ho
	}
	var units []imageUnit
	var costs []float64

	cost, h := convCost(net.stem, size)
	units = append(units, imageUnit{kind: imgStem})
	costs = append(costs, cost)
	for _, blk := range net.blocks {
		c1, h1 := convCost(blk.conv1, h)
		c2, h2 := convCost(blk.conv2, h1)
		c := c1 + c2
		if blk.down != nil {
			cd, _ := convCost(blk.down, h)
			c += cd
		}
		h = h2
		units = append(units, imageUnit{kind: imgBlock, blk: blk})
		costs = append(costs, c)
	}
	fc := net.fc.W.Value
	units = append(units, imageUnit{kind: imgHead})
	costs = append(costs, float64(fc.Shape[0]*fc.Shape[1]))
	return units, costs
}

// ImageStage is one contiguous ResNet segment plus its optimizer. It
// satisfies pipeline.Stage structurally. The first stage assembles (and
// augments) the input microbatch; the last stage computes the
// cross-entropy loss. Per-slot buffers keep every in-flight microbatch's
// inputs alive until its backward pass, so warm steps allocate nothing.
type ImageStage struct {
	w     *ImageClassification
	units []imageUnit
	first bool
	last  bool

	// Opt updates this stage's parameter shard (same hyperparameters as
	// ImageClassification.Opt).
	Opt opt.Optimizer

	ctx     nn.Ctx
	aug     *datasets.Augment
	bx      []*tensor.Tensor // per-slot input batches (first stage)
	blabels [][]int          // per-slot labels (first/last stage)
	out     [][]*autograd.Var
}

// PipelineStages partitions the workload's network into the given number
// of contiguous stages with a cost-balanced split at block boundaries.
// The stages are views over the workload's single model replica (disjoint
// parameter shards), so Evaluate on the workload sees pipeline-trained
// weights directly.
func (w *ImageClassification) PipelineStages(stages int) ([]*ImageStage, error) {
	units, costs := imageUnits(w.Net, w.DS.Cfg.Size)
	cuts, err := balancedSplit(costs, stages)
	if err != nil {
		return nil, err
	}
	out := make([]*ImageStage, stages)
	for si := 0; si < stages; si++ {
		st := &ImageStage{
			w:     w,
			units: units[cuts[si]:cuts[si+1]],
			first: si == 0,
			last:  si == stages-1,
		}
		if w.HP.Augment {
			st.aug = &datasets.Augment{Flip: true, CropPad: 1, Jitter: 0.1}
		}
		st.Opt = imageOptimizer(w.HP, st.Params())
		out[si] = st
	}
	return out, nil
}

// Optimizer returns the stage's optimizer (pipeline.StageWithOpt
// contract).
func (st *ImageStage) Optimizer() opt.Optimizer { return st.Opt }

// Params returns the stage's parameter shard in unit order
// (pipeline.Stage contract).
func (st *ImageStage) Params() []*autograd.Param {
	var ps []*autograd.Param
	for _, u := range st.units {
		switch u.kind {
		case imgStem:
			ps = append(ps, nn.CollectParams(st.w.Net.stem, st.w.Net.stemBN)...)
		case imgBlock:
			ps = append(ps, u.blk.Params()...)
		case imgHead:
			ps = append(ps, st.w.Net.fc.Params()...)
		}
	}
	return ps
}

func (st *ImageStage) ensure(slot int) {
	for len(st.out) <= slot {
		st.out = append(st.out, nil)
		st.bx = append(st.bx, nil)
		st.blabels = append(st.blabels, nil)
	}
}

// Forward runs the stage over one microbatch (pipeline.Stage contract).
// Stochasticity (augmentation) draws from rng exactly as the whole-model
// MicrobatchLoss adapter does, so a staged run consumes the identical
// randomness stream as the serial baseline. BatchNorm statistics are per
// microbatch (ghost batch norm), matching the serial microbatch oracle.
func (st *ImageStage) Forward(tape *autograd.Tape, slot int, idx []int, rng *tensor.RNG, in []*autograd.Var) []*autograd.Var {
	st.ensure(slot)
	st.ctx = nn.Ctx{Tape: tape, Train: true, RNG: rng}
	var h *autograd.Var
	if st.first {
		var aug *datasets.Augment
		if st.aug != nil {
			st.aug.RNG = rng
			aug = st.aug
		}
		st.bx[slot], st.blabels[slot] = st.w.DS.BatchInto(st.bx[slot], st.blabels[slot], true, idx, aug)
		h = tape.ConstOf(st.bx[slot])
	} else {
		h = in[0]
	}
	for _, u := range st.units {
		switch u.kind {
		case imgStem:
			h = autograd.ReLU(st.w.Net.stemBN.Forward(&st.ctx, st.w.Net.stem.Forward(&st.ctx, h)))
		case imgBlock:
			h = u.blk.forward(&st.ctx, h)
		case imgHead:
			if !st.first {
				st.blabels[slot] = labelsInto(st.blabels[slot], st.w.DS.TrainLabels, idx)
			}
			logits := st.w.Net.fc.Forward(&st.ctx, autograd.GlobalAvgPool2D(h))
			h = autograd.SoftmaxCrossEntropy(logits, st.blabels[slot])
		}
	}
	o := append(st.out[slot][:0], h)
	st.out[slot] = o
	return o
}

// labelsInto gathers labels for idx into a reused buffer.
func labelsInto(buf []int, labels []int, idx []int) []int {
	if cap(buf) < len(idx) {
		buf = make([]int, len(idx))
	}
	buf = buf[:len(idx)]
	for i, id := range idx {
		buf[i] = labels[id]
	}
	return buf
}

// ---------------------------------------------------------------------------
// Transformer stages
// ---------------------------------------------------------------------------

type mtUnitKind uint8

const (
	mtEmbed     mtUnitKind = iota // tied source+target embedding with positions
	mtSelfAttn                    // a block's self-attention + ln1
	mtCrossAttn                   // a decoder block's cross-attention + ln3
	mtFeedFwd                     // a block's feed-forward + ln2
	mtHead                        // output projection + loss
)

// mtUnit is one splittable step: the embedding, the head, or one residual
// sublayer of blk (a decoder block when blk.crossAttn is set).
type mtUnit struct {
	kind mtUnitKind
	blk  *transformerBlock
}

// params lists the unit's parameters. A block's units partition
// transformerBlock.Params, in unit order.
func (u mtUnit) params(net *Transformer) []*autograd.Param {
	switch u.kind {
	case mtEmbed:
		return net.Embed.Params()
	case mtSelfAttn:
		return nn.CollectParams(u.blk.selfAttn, u.blk.ln1)
	case mtCrossAttn:
		return nn.CollectParams(u.blk.crossAttn, u.blk.ln3)
	case mtFeedFwd:
		return nn.CollectParams(u.blk.ff1, u.blk.ff2, u.blk.ln2)
	}
	return net.Proj.Params()
}

// mtUnits enumerates the Transformer's splittable units in forward order
// with relative cost estimates (projection + attention FLOPs per token):
// the embedding, each encoder block's two sublayers, each decoder block's
// three, and the head. A decoder block costs 1.7 encoder blocks, so whole
// blocks leave a two-stage cut no better than 36/64; sublayers reach 47/53.
func mtUnits(w *Translation) ([]mtUnit, []float64) {
	d, ff, vocab := w.Net.D, w.HP.FF, w.DS.Cfg.Vocab
	ts, tt := float64(w.srcLen), float64(w.tgtLen)
	df := float64(d)
	attn := func(tq, tk float64) float64 { return 4*tq*df*df + 2*tq*tk*df }
	ffwd := func(t float64) float64 { return 2 * t * df * float64(ff) }

	units := []mtUnit{{kind: mtEmbed}}
	costs := []float64{(ts + tt) * df}
	for _, blk := range w.Net.enc {
		units = append(units, mtUnit{mtSelfAttn, blk}, mtUnit{mtFeedFwd, blk})
		costs = append(costs, attn(ts, ts), ffwd(ts))
	}
	for _, blk := range w.Net.dec {
		units = append(units, mtUnit{mtSelfAttn, blk}, mtUnit{mtCrossAttn, blk}, mtUnit{mtFeedFwd, blk})
		costs = append(costs, attn(tt, tt), attn(tt, ts), ffwd(tt))
	}
	units = append(units, mtUnit{kind: mtHead})
	costs = append(costs, tt*df*float64(vocab))
	return units, costs
}

// TranslationStage is one contiguous Transformer segment plus its
// optimizer (structural pipeline.Stage). The boundary payload is always
// the pair (a, b), wherever the cut falls, between blocks or inside one: in
// the encoder region a is the evolving encoder hidden state and b the
// (precomputed, pass-through) decoder input embedding; once the last
// encoder sublayer has run, a becomes the attention memory that every
// decoder block reads while b evolves through the decoder. Passing both
// through every stage keeps the channel topology strictly
// neighbor-to-neighbor; pass-through tensors cross a stage as identity,
// which is bit-transparent in both directions.
type TranslationStage struct {
	w     *Translation
	units []mtUnit
	first bool
	last  bool

	Opt opt.Optimizer

	ctx nn.Ctx
	src [][]int // per-slot packed source ids (first stage)
	dec [][]int // per-slot packed decoder-input ids (first stage)
	lab [][]int // per-slot packed label ids (first/last stage)
	out [][]*autograd.Var
}

// PipelineStages partitions the workload's Transformer into the given
// number of contiguous stages with a cost-balanced split at sublayer
// boundaries: after the embedding, after any block's self-attention,
// cross-attention or feed-forward sublayer (tied embeddings on the first
// stage, projection head on the last), so a model of L layers splits into
// at most 5L+2 stages. The stages are views over the workload's single
// model replica.
func (w *Translation) PipelineStages(stages int) ([]*TranslationStage, error) {
	units, costs := mtUnits(w)
	cuts, err := balancedSplit(costs, stages)
	if err != nil {
		return nil, err
	}
	out := make([]*TranslationStage, stages)
	for si := 0; si < stages; si++ {
		st := &TranslationStage{
			w:     w,
			units: units[cuts[si]:cuts[si+1]],
			first: si == 0,
			last:  si == stages-1,
		}
		st.Opt = mtOptimizer(w.HP, st.Params())
		out[si] = st
	}
	return out, nil
}

// Optimizer returns the stage's optimizer (pipeline.StageWithOpt
// contract).
func (st *TranslationStage) Optimizer() opt.Optimizer { return st.Opt }

// Params returns the stage's parameter shard in unit order
// (pipeline.Stage contract).
func (st *TranslationStage) Params() []*autograd.Param {
	var ps []*autograd.Param
	for _, u := range st.units {
		ps = append(ps, u.params(st.w.Net)...)
	}
	return ps
}

func (st *TranslationStage) ensure(slot int) {
	for len(st.out) <= slot {
		st.out = append(st.out, nil)
		st.src = append(st.src, nil)
		st.dec = append(st.dec, nil)
		st.lab = append(st.lab, nil)
	}
}

// Forward runs the stage over one microbatch (pipeline.Stage contract).
func (st *TranslationStage) Forward(tape *autograd.Tape, slot int, idx []int, rng *tensor.RNG, in []*autograd.Var) []*autograd.Var {
	st.ensure(slot)
	st.ctx = nn.Ctx{Tape: tape, Train: true, RNG: rng}
	w := st.w
	b := len(idx)
	var a, hd *autograd.Var
	if !st.first {
		a, hd = in[0], in[1]
	}
	for _, u := range st.units {
		switch u.kind {
		case mtEmbed:
			st.src[slot], st.dec[slot], st.lab[slot] =
				mtFlattenInto(w.DS, idx, w.srcLen, w.tgtLen, st.src[slot], st.dec[slot], st.lab[slot])
			a = w.Net.embed(&st.ctx, st.src[slot], b, w.srcLen)
			hd = w.Net.embed(&st.ctx, st.dec[slot], b, w.tgtLen)
		case mtSelfAttn:
			if u.blk.crossAttn == nil {
				a = u.blk.selfAttention(&st.ctx, a, b, w.srcLen, false)
			} else {
				hd = u.blk.selfAttention(&st.ctx, hd, b, w.tgtLen, true)
			}
		case mtCrossAttn:
			hd = u.blk.crossAttention(&st.ctx, hd, a, b, w.tgtLen, w.srcLen)
		case mtFeedFwd:
			if u.blk.crossAttn == nil {
				a = u.blk.feedForward(&st.ctx, a)
			} else {
				hd = u.blk.feedForward(&st.ctx, hd)
			}
		case mtHead:
			if !st.first {
				_, _, st.lab[slot] = mtFlattenInto(w.DS, idx, 0, w.tgtLen, nil, nil, st.lab[slot])
			}
			logits := w.Net.Proj.Forward(&st.ctx, hd)
			loss := autograd.SoftmaxCrossEntropy(logits, st.lab[slot])
			o := append(st.out[slot][:0], loss)
			st.out[slot] = o
			return o
		}
	}
	o := append(st.out[slot][:0], a, hd)
	st.out[slot] = o
	return o
}

// mtFlattenInto packs examples idx into flat source / decoder-input /
// label id rows (PadBatch semantics: PAD-padded source, BOS-led decoder
// input, -1-ignored label padding), reusing the provided buffers. srcLen 0
// skips the source and decoder rows (label-only callers).
func mtFlattenInto(ds *datasets.MTDataset, idx []int, srcLen, tgtLen int, src, dec, lab []int) ([]int, []int, []int) {
	src, dec, lab = src[:0], dec[:0], lab[:0]
	for _, id := range idx {
		p := ds.Train[id]
		if srcLen > 0 {
			for j := 0; j < srcLen; j++ {
				if j < len(p.Src) {
					src = append(src, p.Src[j])
				} else {
					src = append(src, datasets.PAD)
				}
			}
			dec = append(dec, datasets.BOS)
			for j := 0; j < tgtLen-1; j++ {
				if j < len(p.Tgt) {
					dec = append(dec, p.Tgt[j])
				} else {
					dec = append(dec, datasets.PAD)
				}
			}
		}
		for j := 0; j < tgtLen; j++ {
			if j < len(p.Tgt) {
				lab = append(lab, p.Tgt[j])
			} else {
				lab = append(lab, -1)
			}
		}
	}
	return src, dec, lab
}

// Params exposes the translation model's trainable parameters
// (pipeline.Trainable contract).
func (w *Translation) Params() []*autograd.Param { return w.params }

// MicrobatchLoss builds the Transformer training loss for one microbatch
// of sentence-pair indices — the serial oracle the staged pipeline is
// bit-identical to, and the adapter that makes the Transformer benchmark
// trainable data-parallel (the engine at one stage). The op sequence is
// exactly the staged units' composition at S = 1: tied source and target
// embeddings first, then encoder blocks, decoder blocks, and the
// projection head.
func (w *Translation) MicrobatchLoss(tape *autograd.Tape, idx []int, rng *tensor.RNG) *autograd.Var {
	w.mbSrc, w.mbDec, w.mbLab = mtFlattenInto(w.DS, idx, w.srcLen, w.tgtLen, w.mbSrc, w.mbDec, w.mbLab)
	ctx := nn.Ctx{Tape: tape, Train: true, RNG: rng}
	b := len(idx)
	hEnc := w.Net.embed(&ctx, w.mbSrc, b, w.srcLen)
	hDec := w.Net.embed(&ctx, w.mbDec, b, w.tgtLen)
	for _, blk := range w.Net.enc {
		hEnc = blk.forward(&ctx, hEnc, nil, b, w.srcLen, 0, false)
	}
	for _, blk := range w.Net.dec {
		hDec = blk.forward(&ctx, hDec, hEnc, b, w.tgtLen, w.srcLen, true)
	}
	return autograd.SoftmaxCrossEntropy(w.Net.Proj.Forward(&ctx, hDec), w.mbLab)
}
