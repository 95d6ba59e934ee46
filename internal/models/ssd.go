package models

import (
	"math"
	"sort"

	"repro/internal/autograd"
	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// detBackbone is the shared convolutional trunk of the detection models:
// ResNet-34-style basic blocks (two 3×3 convs per block — the "different
// residual-block structure compared to ResNet-50" §3.1.2 notes) reducing a
// [B,3,S,S] image to a stride-4 feature map.
type detBackbone struct {
	stem   *nn.Conv2d
	stemBN *nn.BatchNorm2d
	b1, b2 *residualBlock
	OutC   int
	Stride int
}

func newDetBackbone(width int, rng *tensor.RNG) *detBackbone {
	return &detBackbone{
		stem:   nn.NewConv2d("bb.stem", 3, width, 3, 1, 1, false, rng),
		stemBN: nn.NewBatchNorm2d("bb.stembn", width),
		b1:     newResidualBlock("bb.b1", width, 2*width, 2, rng),
		b2:     newResidualBlock("bb.b2", 2*width, 2*width, 1, rng),
		OutC:   2 * width,
		Stride: 2,
	}
}

func (b *detBackbone) forward(ctx *nn.Ctx, x *autograd.Var) *autograd.Var {
	h := autograd.ReLU(b.stemBN.Forward(ctx, b.stem.Forward(ctx, x)))
	return b.b2.forward(ctx, b.b1.forward(ctx, h))
}

func (b *detBackbone) Params() []*autograd.Param {
	ps := nn.CollectParams(b.stem, b.stemBN)
	ps = append(ps, b.b1.Params()...)
	return append(ps, b.b2.Params()...)
}

// SSD is the light-weight one-stage object detector of §3.1.2: a ResNet-34
// style backbone with convolutional classification and box-regression heads
// over a grid of default boxes (anchors), trained with hard-negative-mined
// cross-entropy plus Smooth-L1, evaluated by COCO-style mAP.
type SSD struct {
	Backbone *detBackbone
	ClsHead  *nn.Conv2d
	RegHead  *nn.Conv2d
	Anchors  []Anchor
	Classes  int // object classes; background is class 0 in logits
	GridS    int
}

// NewSSD builds the detector for S×S images with the given object classes.
func NewSSD(imageS, classes, width int, rng *tensor.RNG) *SSD {
	bb := newDetBackbone(width, rng)
	gridS := imageS / bb.Stride
	shapes := DefaultAnchorShapes([]float64{float64(imageS) * 0.3, float64(imageS) * 0.5})
	s := &SSD{
		Backbone: bb,
		ClsHead:  nn.NewConv2d("ssd.cls", bb.OutC, len(shapes)*(classes+1), 3, 1, 1, true, rng),
		RegHead:  nn.NewConv2d("ssd.reg", bb.OutC, len(shapes)*4, 3, 1, 1, true, rng),
		Anchors:  GridAnchors(gridS, bb.Stride, shapes),
		Classes:  classes,
		GridS:    gridS,
	}
	return s
}

// Forward returns per-anchor class logits [B*A, classes+1] and box
// regressions [B*A, 4], with anchors ordered as in GridAnchors per image.
func (s *SSD) Forward(ctx *nn.Ctx, x *autograd.Var) (cls, reg *autograd.Var) {
	f := s.Backbone.forward(ctx, x)
	cls = autograd.SpatialRows(s.ClsHead.Forward(ctx, f), s.Classes+1)
	reg = autograd.SpatialRows(s.RegHead.Forward(ctx, f), 4)
	return cls, reg
}

// Params implements nn.Module.
func (s *SSD) Params() []*autograd.Param {
	return append(s.Backbone.Params(), nn.CollectParams(s.ClsHead, s.RegHead)...)
}

// DetHParams are the tunables of the detection benchmarks.
type DetHParams struct {
	Batch       int
	LR          float64
	Momentum    float64
	WeightDecay float64
	Width       int
	// NegPosRatio is the hard-negative mining ratio (3:1 in SSD).
	NegPosRatio int
	// ScoreThresh and NMSIoU control inference-time decoding.
	ScoreThresh float64
	NMSIoU      float64
}

// DefaultDetHParams is the reference configuration.
func DefaultDetHParams() DetHParams {
	return DetHParams{Batch: 16, LR: 0.02, Momentum: 0.9, WeightDecay: 5e-4,
		Width: 6, NegPosRatio: 3, ScoreThresh: 0.25, NMSIoU: 0.3}
}

// ObjectDetection is the SSD model over the synthetic COCO stand-in, with
// its optimizer: an engine model (see MicrobatchLoss).
type ObjectDetection struct {
	HP  DetHParams
	DS  *datasets.DetDataset
	Net *SSD
	Opt opt.Optimizer

	params []*autograd.Param
	eval   detEval
}

// detEval is the storage SSD's Evaluate reuses across calls: the batch of
// one image and its tape, rewound per image; one class's candidate boxes;
// the detection list; and the ground truth, built once because the
// validation split never changes.
type detEval struct {
	img  evalBatch
	cand []ScoredBox
	dets []metrics.Detection
	gts  []metrics.GroundTruth
}

// NewObjectDetection builds the model and its optimizer from a run seed.
func NewObjectDetection(ds *datasets.DetDataset, hp DetHParams, seed uint64) *ObjectDetection {
	net := NewSSD(ds.Cfg.Size, ds.Cfg.Classes, hp.Width, tensor.NewRNG(seed).Split(1))
	params := net.Params()
	return &ObjectDetection{
		HP: hp, DS: ds, Net: net,
		Opt:    opt.NewSGD(params, hp.LR, hp.Momentum, hp.WeightDecay, opt.TorchStyle),
		params: params,
	}
}

// Params exposes the detector's trainable parameters (pipeline.Trainable
// contract).
func (w *ObjectDetection) Params() []*autograd.Param { return w.params }

// buildTargets computes per-anchor labels (class id, 0 = background,
// -1 = ignore) and regression targets for one batch, with hard-negative
// mining applied using the current background probabilities.
func (w *ObjectDetection) buildTargets(idx []int, clsVal *tensor.Tensor) (labels []int, regTargets []float64, posRows []int) {
	a := len(w.Net.Anchors)
	c1 := w.Net.Classes + 1
	labels = make([]int, len(idx)*a)
	regTargets = make([]float64, 0, len(idx)*4)
	type negCand struct {
		row  int
		loss float64
	}
	for bi, id := range idx {
		ex := w.DS.Train[id]
		gtBoxes := make([]datasets.Box, len(ex.Boxes))
		copy(gtBoxes, ex.Boxes)
		match := MatchAnchors(w.Net.Anchors, gtBoxes, 0.45, 0.35)
		var negs []negCand
		pos := 0
		for ai, m := range match {
			row := bi*a + ai
			switch {
			case m >= 0:
				labels[row] = gtBoxes[m].Class
				posRows = append(posRows, row)
				t := EncodeBox(w.Net.Anchors[ai], gtBoxes[m])
				regTargets = append(regTargets, t[0], t[1], t[2], t[3])
				pos++
			case m == -1:
				labels[row] = autograd.IgnoreLabel
			default:
				// Background candidate: mining loss is -log p(bg).
				rowData := clsVal.Data[row*c1 : (row+1)*c1]
				negs = append(negs, negCand{row: row, loss: -logSoftmaxAt(rowData, 0)})
			}
		}
		// Hard negative mining: keep the NegPosRatio×pos hardest negatives,
		// ignore the rest (SSD's 3:1 rule).
		sort.Slice(negs, func(i, j int) bool { return negs[i].loss > negs[j].loss })
		limit := w.HP.NegPosRatio * pos
		if limit < 1 {
			limit = 1
		}
		for ni, nc := range negs {
			if ni < limit {
				labels[nc.row] = 0
			} else {
				labels[nc.row] = autograd.IgnoreLabel
			}
		}
	}
	return labels, regTargets, posRows
}

// logSoftmaxAt returns log softmax(row)[j] computed stably.
func logSoftmaxAt(row []float64, j int) float64 {
	mx := row[0]
	for _, v := range row[1:] {
		if v > mx {
			mx = v
		}
	}
	s := 0.0
	for _, v := range row {
		s += math.Exp(v - mx)
	}
	return row[j] - mx - math.Log(s)
}

// MicrobatchLoss builds the SSD training loss for one microbatch of image
// indices (pipeline.Trainable contract): hard-negative-mined cross-entropy
// plus Smooth-L1 on the matched anchors. The targets read the forward's
// class scores (mining ranks negatives by their current background loss),
// so they are built here, between the forward and the loss.
func (w *ObjectDetection) MicrobatchLoss(tape *autograd.Tape, idx []int, rng *tensor.RNG) *autograd.Var {
	x := datasets.BatchImages(w.DS.Train, idx)
	ctx := nn.NewCtx(tape, true, rng)
	cls, reg := w.Net.Forward(ctx, tape.ConstOf(x))
	labels, regTargets, posRows := w.buildTargets(idx, cls.Value)
	clsLoss := autograd.SoftmaxCrossEntropy(cls, labels)
	if len(posRows) == 0 {
		return clsLoss
	}
	posReg := autograd.GatherRows(reg, posRows)
	regLoss := autograd.SmoothL1(posReg, tensor.FromSlice(regTargets, len(posRows), 4))
	return autograd.Add(clsLoss, autograd.Scale(regLoss, 2))
}

// Detect runs inference on one validation image index, returning NMS-ed
// detections per class. The forward runs on the workload's eval tape, so
// Detect is not safe for concurrent use, and a warm forward allocates
// nothing.
func (w *ObjectDetection) Detect(exs []datasets.DetExample, id int) []metrics.Detection {
	e := &w.eval
	x := e.img.image(exs[id].Image)
	cls, reg := w.Net.Forward(&e.img.ctx, x)
	c1 := w.Net.Classes + 1
	var out []metrics.Detection
	for cInd := 1; cInd < c1; cInd++ {
		e.cand = e.cand[:0]
		for ai, anchor := range w.Net.Anchors {
			row := cls.Value.Data[ai*c1 : (ai+1)*c1]
			score := math.Exp(logSoftmaxAt(row, cInd))
			if score < w.HP.ScoreThresh {
				continue
			}
			var d [4]float64
			copy(d[:], reg.Value.Data[ai*4:(ai+1)*4])
			e.cand = append(e.cand, ScoredBox{Box: DecodeBox(anchor, d), Score: score})
		}
		for _, sb := range NMS(e.cand, w.HP.NMSIoU, 5) {
			b := sb.Box
			b.Class = cInd
			out = append(out, metrics.Detection{ImageID: id, Box: b, Score: sb.Score})
		}
	}
	return out
}

// Evaluate is the benchmark's quality metric: box mAP at IoU 0.5 over the
// validation set. The paper's COCO target of 21.2 mAP carries over
// numerically (threshold 0.212); we evaluate at IoU 0.5 because at 16×16
// synthetic resolution the 0.5:0.95 IoU sweep is quantization-bound rather
// than learning-bound.
func (w *ObjectDetection) Evaluate() float64 {
	e := &w.eval
	if e.gts == nil {
		for id, ex := range w.DS.Val {
			for _, b := range ex.Boxes {
				e.gts = append(e.gts, metrics.GroundTruth{ImageID: id, Box: b})
			}
		}
	}
	e.dets = e.dets[:0]
	for id := range w.DS.Val {
		e.dets = append(e.dets, w.Detect(w.DS.Val, id)...)
	}
	return metrics.MeanAP50(e.dets, e.gts, false)
}
