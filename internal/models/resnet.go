package models

import (
	"repro/internal/autograd"
	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/precision"
	"repro/internal/tensor"
)

// residualBlock is a ResNet v1.5 basic block: conv-BN-ReLU-conv-BN, with
// the skip added after the second BatchNorm ("addition after batch
// normalization") and downsampling performed by the stride of the 3×3
// convolution rather than a 1×1 in the main path — the v1.5 details the
// paper fixes to make system comparisons meaningful (§3.1.1).
type residualBlock struct {
	conv1, conv2 *nn.Conv2d
	bn1, bn2     *nn.BatchNorm2d
	// down projects the skip connection when shape changes; nil for
	// identity skips (the first residual block of each network has no
	// 1×1 in its skip, per the v1.5 definition).
	down   *nn.Conv2d
	downBN *nn.BatchNorm2d
}

func newResidualBlock(name string, inC, outC, stride int, rng *tensor.RNG) *residualBlock {
	b := &residualBlock{
		conv1: nn.NewConv2d(name+".conv1", inC, outC, 3, stride, 1, false, rng),
		bn1:   nn.NewBatchNorm2d(name+".bn1", outC),
		conv2: nn.NewConv2d(name+".conv2", outC, outC, 3, 1, 1, false, rng),
		bn2:   nn.NewBatchNorm2d(name+".bn2", outC),
	}
	if stride != 1 || inC != outC {
		b.down = nn.NewConv2d(name+".down", inC, outC, 1, stride, 0, false, rng)
		b.downBN = nn.NewBatchNorm2d(name+".downbn", outC)
	}
	return b
}

func (b *residualBlock) forward(ctx *nn.Ctx, x *autograd.Var) *autograd.Var {
	h := autograd.ReLU(b.bn1.Forward(ctx, b.conv1.Forward(ctx, x)))
	h = b.bn2.Forward(ctx, b.conv2.Forward(ctx, h))
	skip := x
	if b.down != nil {
		skip = b.downBN.Forward(ctx, b.down.Forward(ctx, skip))
	}
	return autograd.ReLU(autograd.Add(h, skip))
}

func (b *residualBlock) Params() []*autograd.Param {
	ps := nn.CollectParams(b.conv1, b.bn1, b.conv2, b.bn2)
	if b.down != nil {
		ps = append(ps, nn.CollectParams(b.down, b.downBN)...)
	}
	return ps
}

// ResNet is the scaled-down ResNet-v1.5 classifier: a 3×3 stem followed by
// two stages of basic blocks and a linear classifier head.
type ResNet struct {
	stem   *nn.Conv2d
	stemBN *nn.BatchNorm2d
	blocks []*residualBlock
	fc     *nn.Linear
}

// NewResNet builds the classifier for inC-channel images and the given
// class count. width is the stem channel count (stage 2 doubles it).
func NewResNet(inC, classes, width int, rng *tensor.RNG) *ResNet {
	r := &ResNet{
		stem:   nn.NewConv2d("stem", inC, width, 3, 1, 1, false, rng),
		stemBN: nn.NewBatchNorm2d("stembn", width),
	}
	// Stage 1: identity blocks at stem width (first block: no 1×1 skip).
	r.blocks = append(r.blocks, newResidualBlock("s1b1", width, width, 1, rng))
	// Stage 2: downsampling block then an identity block at 2× width.
	r.blocks = append(r.blocks, newResidualBlock("s2b1", width, 2*width, 2, rng))
	r.blocks = append(r.blocks, newResidualBlock("s2b2", 2*width, 2*width, 1, rng))
	r.fc = nn.NewLinearXavier("fc", 2*width, classes, true, rng)
	return r
}

// Forward produces class logits [N, classes] for x [N,C,H,W].
func (r *ResNet) Forward(ctx *nn.Ctx, x *autograd.Var) *autograd.Var {
	h := autograd.ReLU(r.stemBN.Forward(ctx, r.stem.Forward(ctx, x)))
	for _, b := range r.blocks {
		h = b.forward(ctx, h)
	}
	return r.fc.Forward(ctx, autograd.GlobalAvgPool2D(h))
}

// Params implements nn.Module.
func (r *ResNet) Params() []*autograd.Param {
	ps := nn.CollectParams(r.stem, r.stemBN)
	for _, b := range r.blocks {
		ps = append(ps, b.Params()...)
	}
	return append(ps, r.fc.Params()...)
}

// ImageHParams are the tunable hyperparameters of the image-classification
// benchmark. MLPerf rules allow adjusting the batch size (and coupling the
// learning rate to it via the linear scaling rule) but fix the topology.
type ImageHParams struct {
	Batch       int
	BaseLR      float64 // learning rate at reference batch RefBatch
	RefBatch    int
	Momentum    float64
	WeightDecay float64
	Width       int
	// UseLARS selects the LARS optimizer (admitted in v0.6 for large
	// batches); otherwise SGD with momentum is used.
	UseLARS bool
	// MomentumStyle picks between the §2.2.4 formulations.
	MomentumStyle opt.MomentumStyle
	// WarmupEpochs ramps the learning rate linearly (large-batch rule).
	WarmupEpochs int
	// DecayEpoch steps the learning rate down by DecayFactor (the
	// reference ResNet schedule; 0 disables).
	DecayEpoch  int
	DecayFactor float64
	// Precision quantizes weights/gradients each step (Figure 1 study):
	// the optimizer does it, so it holds at every topology.
	Precision precision.Policy
	// Numerics is frozen: bench/ sets it and nothing reads it. The regime
	// a run trains in is pipeline.Config.Numerics; drop this field when
	// bench/ is next allowed to change.
	Numerics precision.Numerics
	// Augment enables the random flip/crop/jitter pipeline.
	Augment bool
}

// DefaultImageHParams is the reference configuration.
func DefaultImageHParams() ImageHParams {
	return ImageHParams{
		Batch: 32, BaseLR: 0.08, RefBatch: 32, Momentum: 0.9,
		WeightDecay: 1e-4, Width: 6, WarmupEpochs: 0,
		DecayEpoch: 8, DecayFactor: 0.2,
		Precision: precision.FullPrecision(), Augment: true,
	}
}

// ImageClassification is the ResNet model over the synthetic ImageNet
// stand-in, with its optimizer and LR schedule: an engine model (see
// MicrobatchLoss and PipelineStages).
type ImageClassification struct {
	HP    ImageHParams
	DS    *datasets.ImageDataset
	Net   *ResNet
	Opt   opt.Optimizer
	Sched opt.Schedule

	params []*autograd.Param

	// Batch and augmentation buffers MicrobatchLoss reuses, so a warm call
	// allocates nothing.
	ctx     nn.Ctx
	mbAug   *datasets.Augment
	bx      *tensor.Tensor
	blabels []int

	eval imageEval
}

// imageOptimizer builds the benchmark optimizer for a parameter list.
// Factored out so staged (pipeline-parallel) training can give each stage
// an optimizer with hyperparameters identical to the serial one — the
// optimizers are elementwise, so per-stage instances over disjoint
// parameter shards update exactly as one instance over all parameters.
// A Figure-1 precision policy wraps it in a quantizing optimizer; the
// quantizers work one parameter at a time, so that split holds too.
func imageOptimizer(hp ImageHParams, params []*autograd.Param) opt.Optimizer {
	lr := opt.LinearScaled(hp.BaseLR, hp.Batch, hp.RefBatch)
	var o opt.Stateful
	if hp.UseLARS {
		o = opt.NewLARS(params, lr, hp.Momentum, hp.WeightDecay, 0.02)
	} else {
		o = opt.NewSGD(params, lr, hp.Momentum, hp.WeightDecay, hp.MomentumStyle)
	}
	if hp.Precision == (precision.Policy{}) {
		return o
	}
	return &quantized{Stateful: o, policy: hp.Precision, params: params}
}

// quantized applies a precision policy around an optimizer's update:
// gradients are quantized before it and the stored weights after it. The
// embedded optimizer answers everything else (SetLR, LR, and the
// opt.Stateful checkpoint methods).
type quantized struct {
	opt.Stateful
	policy precision.Policy
	params []*autograd.Param
}

// Step implements opt.Optimizer.
func (q *quantized) Step() {
	q.policy.ApplyToGrads(q.params)
	q.Stateful.Step()
	q.policy.ApplyToWeights(q.params)
}

// NewImageClassification builds the model, its optimizer and its LR
// schedule from a dataset, hyperparams, and a run seed (the weight init
// derives from it; shuffling and augmentation are the engine's, from the
// same seed — the §2.2.3 stochasticity sources).
func NewImageClassification(ds *datasets.ImageDataset, hp ImageHParams, seed uint64) *ImageClassification {
	net := NewResNet(ds.Cfg.Channels, ds.Cfg.Classes, hp.Width, tensor.NewRNG(seed).Split(1))
	params := net.Params()
	lr := opt.LinearScaled(hp.BaseLR, hp.Batch, hp.RefBatch)
	stepsPerEpoch := (ds.Cfg.TrainN + hp.Batch - 1) / hp.Batch
	var inner opt.Schedule = opt.Constant(lr)
	if hp.DecayEpoch > 0 && hp.DecayFactor > 0 {
		inner = opt.Step{Base: lr, Boundaries: []int{hp.DecayEpoch * stepsPerEpoch}, Factor: hp.DecayFactor}
	}
	// Initial weights are stored in the simulated representation too.
	hp.Precision.ApplyToWeights(params)
	return &ImageClassification{
		HP: hp, DS: ds, Net: net,
		Opt:    imageOptimizer(hp, params),
		Sched:  opt.Warmup{Inner: inner, WarmupSteps: hp.WarmupEpochs * stepsPerEpoch},
		params: params,
	}
}

// Evaluate is the benchmark's quality metric: Top-1 accuracy on the
// validation split, in batches of 64 run forward on the model's eval
// storage, so a warm call allocates nothing.
func (w *ImageClassification) Evaluate() float64 {
	const batch = 64
	e := &w.eval
	e.preds, e.labels = e.preds[:0], e.labels[:0]
	for lo := 0; lo < w.DS.Cfg.ValN; lo += batch {
		hi := min(lo+batch, w.DS.Cfg.ValN)
		b := &e.full
		if hi-lo < batch {
			b = &e.last
		}
		e.idx = e.idx[:0]
		for i := lo; i < hi; i++ {
			e.idx = append(e.idx, i)
		}
		b.x, b.labels = w.DS.BatchInto(b.x, b.labels, false, e.idx, nil)
		if b.tape == nil {
			b.tape = autograd.NewTape()
			b.ctx = nn.Ctx{Tape: b.tape}
		}
		b.tape.Reset()
		logits := w.Net.Forward(&b.ctx, b.tape.ConstOf(b.x))
		e.preds = logits.Value.AppendArgMaxRows(e.preds)
		e.labels = append(e.labels, b.labels...)
	}
	return metrics.Top1Accuracy(e.preds, e.labels)
}

// imageEval is the storage Evaluate reuses across calls: the full batches
// and a shorter last one each keep their own tape and batch buffer, so
// neither shape re-pools the other's tensors, plus the index, prediction
// and label lists.
type imageEval struct {
	full, last         evalBatch
	idx, preds, labels []int
}

// evalBatch is one batch shape's eval tape, context and input buffers.
type evalBatch struct {
	tape   *autograd.Tape
	ctx    nn.Ctx
	x      *tensor.Tensor
	labels []int
}
