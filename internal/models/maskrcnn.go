package models

import (
	"math"

	"repro/internal/autograd"
	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// MaskRCNN is the heavy-weight two-stage detector/segmenter of §3.1.2: a
// region proposal network (RPN) over backbone features, RoIAlign pooling of
// proposals, and parallel box-classification and mask heads (He et al.,
// 2017a), scaled to the synthetic COCO stand-in.
type MaskRCNN struct {
	Backbone *detBackbone
	// RPN heads (1×1 convs): objectness logit and box deltas per anchor.
	RPNObj *nn.Conv2d
	RPNReg *nn.Conv2d
	// Second stage over RoIAligned features.
	BoxFC1   *nn.Linear
	BoxCls   *nn.Linear
	BoxReg   *nn.Linear
	MaskFC1  *nn.Linear
	MaskOut  *nn.Linear
	Anchors  []Anchor
	Classes  int
	RoISize  int
	MaskSize int
	GridS    int
}

// NewMaskRCNN builds the two-stage model.
func NewMaskRCNN(imageS, classes, width int, rng *tensor.RNG) *MaskRCNN {
	bb := newDetBackbone(width, rng)
	gridS := imageS / bb.Stride
	shapes := DefaultAnchorShapes([]float64{float64(imageS) * 0.3, float64(imageS) * 0.5})
	roi := 4
	maskS := 8
	feat := bb.OutC * roi * roi
	return &MaskRCNN{
		Backbone: bb,
		RPNObj:   nn.NewConv2d("rpn.obj", bb.OutC, len(shapes), 1, 1, 0, true, rng),
		RPNReg:   nn.NewConv2d("rpn.reg", bb.OutC, len(shapes)*4, 1, 1, 0, true, rng),
		BoxFC1:   nn.NewLinear("box.fc1", feat, 32, true, rng),
		BoxCls:   nn.NewLinearXavier("box.cls", 32, classes+1, true, rng),
		BoxReg:   nn.NewLinearXavier("box.reg", 32, 4, true, rng),
		MaskFC1:  nn.NewLinear("mask.fc1", feat, 48, true, rng),
		MaskOut:  nn.NewLinearXavier("mask.out", 48, maskS*maskS, true, rng),
		Anchors:  GridAnchors(gridS, bb.Stride, shapes),
		Classes:  classes,
		RoISize:  roi,
		MaskSize: maskS,
		GridS:    gridS,
	}
}

// Params implements nn.Module.
func (m *MaskRCNN) Params() []*autograd.Param {
	ps := m.Backbone.Params()
	return append(ps, nn.CollectParams(m.RPNObj, m.RPNReg, m.BoxFC1, m.BoxCls, m.BoxReg, m.MaskFC1, m.MaskOut)...)
}

// rpnForward returns per-anchor objectness logits [B*A, 1] and deltas
// [B*A, 4] plus the backbone feature map.
func (m *MaskRCNN) rpnForward(ctx *nn.Ctx, x *autograd.Var) (obj, reg, feat *autograd.Var) {
	feat = m.Backbone.forward(ctx, x)
	obj = autograd.SpatialRows(m.RPNObj.Forward(ctx, feat), 1)
	reg = autograd.SpatialRows(m.RPNReg.Forward(ctx, feat), 4)
	return obj, reg, feat
}

// rois maps image-space boxes into feature-map coordinates by the backbone
// stride, as RoIAlign boxes on the given images of the batch, appended to
// dst.
func (m *MaskRCNN) rois(dst []autograd.RoIBox, batchIdx []int, boxes []datasets.Box) []autograd.RoIBox {
	stride := float64(m.Backbone.Stride)
	for i, b := range boxes {
		dst = append(dst, autograd.RoIBox{
			Batch: batchIdx[i],
			X1:    b.X1 / stride, Y1: b.Y1 / stride,
			X2: b.X2 / stride, Y2: b.Y2 / stride,
		})
	}
	return dst
}

// headsForward pools the given regions from the feature map and runs the
// box and mask heads.
func (m *MaskRCNN) headsForward(ctx *nn.Ctx, feat *autograd.Var, rois []autograd.RoIBox) (cls, reg, mask *autograd.Var) {
	pooled := autograd.RoIAlign(feat, rois, m.RoISize)
	flat := autograd.Reshape(pooled, len(rois), m.Backbone.OutC*m.RoISize*m.RoISize)
	boxH := autograd.ReLU(m.BoxFC1.Forward(ctx, flat))
	cls = m.BoxCls.Forward(ctx, boxH)
	reg = m.BoxReg.Forward(ctx, boxH)
	maskH := autograd.ReLU(m.MaskFC1.Forward(ctx, flat))
	mask = m.MaskOut.Forward(ctx, maskH)
	return cls, reg, mask
}

// InstanceSegmentation is the Mask R-CNN model over the synthetic COCO
// stand-in, with its optimizer: an engine model (see MicrobatchLoss). Its
// gating quality metric is min(boxAP/boxTarget, maskAP/maskTarget): the
// benchmark is done only when BOTH Table-1 thresholds (0.377 box, 0.339
// mask) are met, so the harness threshold is 1.0.
type InstanceSegmentation struct {
	HP  DetHParams
	DS  *datasets.DetDataset
	Net *MaskRCNN
	Opt opt.Optimizer

	BoxTarget, MaskTarget float64

	params []*autograd.Param
	eval   maskEval
}

// maskEval is the storage Mask R-CNN's Evaluate reuses across calls: the
// batch of one image and its tape, rewound per image; a tape for the second
// stage per proposal count (heads[k-1] runs k proposals), so no count
// re-pools another's tensors; the proposal, class and mask-source scratch
// of one image; the detection lists; and the ground truth, built once
// (with each object's full-image mask) because the validation split never
// changes.
type maskEval struct {
	img   evalBatch
	heads []evalBatch

	cands, cb             []ScoredBox
	boxes                 []datasets.Box
	batchIdx, best, rowOf []int
	rois                  []autograd.RoIBox
	boxDets, maskDets     []metrics.Detection
	boxGTs, maskGTs       []metrics.GroundTruth
}

// DefaultMaskHParams is the reference configuration for Mask R-CNN.
func DefaultMaskHParams() DetHParams {
	return DetHParams{Batch: 8, LR: 0.02, Momentum: 0.9, WeightDecay: 5e-4,
		Width: 6, NegPosRatio: 3, ScoreThresh: 0.25, NMSIoU: 0.3}
}

// NewInstanceSegmentation builds the model and its optimizer from a run
// seed.
func NewInstanceSegmentation(ds *datasets.DetDataset, hp DetHParams, seed uint64) *InstanceSegmentation {
	net := NewMaskRCNN(ds.Cfg.Size, ds.Cfg.Classes, hp.Width, tensor.NewRNG(seed).Split(1))
	params := net.Params()
	return &InstanceSegmentation{
		HP: hp, DS: ds, Net: net,
		Opt:        opt.NewSGD(params, hp.LR, hp.Momentum, hp.WeightDecay, opt.TorchStyle),
		BoxTarget:  0.377,
		MaskTarget: 0.339,
		params:     params,
	}
}

// Params exposes the detector's trainable parameters (pipeline.Trainable
// contract).
func (w *InstanceSegmentation) Params() []*autograd.Param { return w.params }

// maskTarget samples the GT mask into the maskS×maskS grid of a proposal.
func maskTargetGrid(gt *tensor.Tensor, box datasets.Box, maskS int) []float64 {
	s := gt.Shape[0]
	out := make([]float64, maskS*maskS)
	bw := math.Max(box.X2-box.X1, 1e-6)
	bh := math.Max(box.Y2-box.Y1, 1e-6)
	for gy := 0; gy < maskS; gy++ {
		py := int(box.Y1 + (float64(gy)+0.5)*bh/float64(maskS))
		for gx := 0; gx < maskS; gx++ {
			px := int(box.X1 + (float64(gx)+0.5)*bw/float64(maskS))
			if py >= 0 && py < s && px >= 0 && px < s && gt.At(py, px) > 0.5 {
				out[gy*maskS+gx] = 1
			}
		}
	}
	return out
}

// MicrobatchLoss builds the joint RPN + heads training loss for one
// microbatch of image indices (pipeline.Trainable contract). Proposals for
// the second stage mix ground-truth boxes with jittered copies of them (the
// standard trick that guarantees positive RoIs early in training) and a
// random background box per image; the jitter and the background box draw
// from rng.
func (w *InstanceSegmentation) MicrobatchLoss(tape *autograd.Tape, idx []int, rng *tensor.RNG) *autograd.Var {
	x := datasets.BatchImages(w.DS.Train, idx)
	ctx := nn.NewCtx(tape, true, rng)
	obj, reg, feat := w.Net.rpnForward(ctx, tape.ConstOf(x))
	a := len(w.Net.Anchors)

	// --- RPN losses ---
	objTargets := make([]float64, len(idx)*a)
	objRows := make([]int, 0)
	var rpnRegRows []int
	var rpnRegTargets []float64
	for bi, id := range idx {
		ex := w.DS.Train[id]
		match := MatchAnchors(w.Net.Anchors, ex.Boxes, 0.45, 0.3)
		for ai, mt := range match {
			row := bi*a + ai
			switch {
			case mt >= 0:
				objTargets[row] = 1
				objRows = append(objRows, row)
				t := EncodeBox(w.Net.Anchors[ai], ex.Boxes[mt])
				rpnRegRows = append(rpnRegRows, row)
				rpnRegTargets = append(rpnRegTargets, t[0], t[1], t[2], t[3])
			case mt == -2:
				objRows = append(objRows, row)
			}
		}
	}
	objSel := autograd.GatherRows(obj, objRows)
	selTargets := make([]float64, len(objRows))
	for j, r := range objRows {
		selTargets[j] = objTargets[r]
	}
	rpnLoss := autograd.BCEWithLogits(objSel, selTargets)
	if len(rpnRegRows) > 0 {
		rr := autograd.GatherRows(reg, rpnRegRows)
		rpnLoss = autograd.Add(rpnLoss, autograd.Scale(
			autograd.SmoothL1(rr, tensor.FromSlice(rpnRegTargets, len(rpnRegRows), 4)), 2))
	}

	// --- Second stage over proposals (GT boxes + jittered GT) ---
	var batchIdx []int
	var propBoxes []datasets.Box
	var propLabels []int
	var boxRegTargets []float64
	var boxRegRows []int
	var maskRows []int
	var maskTargets []float64
	for bi, id := range idx {
		ex := w.DS.Train[id]
		for gi, gt := range ex.Boxes {
			// Exact GT proposal (positive) ...
			props := []datasets.Box{gt, jitterBox(gt, rng, 2, float64(w.DS.Cfg.Size))}
			for _, p := range props {
				row := len(propBoxes)
				batchIdx = append(batchIdx, bi)
				propBoxes = append(propBoxes, p)
				if datasets.IoU(p, gt) >= 0.5 {
					propLabels = append(propLabels, gt.Class)
					t := EncodeBox(boxAsAnchor(p), gt)
					boxRegRows = append(boxRegRows, row)
					boxRegTargets = append(boxRegTargets, t[0], t[1], t[2], t[3])
					maskRows = append(maskRows, row)
					maskTargets = append(maskTargets, maskTargetGrid(ex.Masks[gi], p, w.Net.MaskSize)...)
				} else {
					propLabels = append(propLabels, 0)
				}
			}
		}
		// One random background proposal per image.
		bg := randomBox(rng, float64(w.DS.Cfg.Size))
		isBG := true
		for _, gt := range ex.Boxes {
			if datasets.IoU(bg, gt) >= 0.5 {
				isBG = false
				break
			}
		}
		if isBG {
			batchIdx = append(batchIdx, bi)
			propBoxes = append(propBoxes, bg)
			propLabels = append(propLabels, 0)
		}
	}
	cls, boxReg, mask := w.Net.headsForward(ctx, feat, w.Net.rois(nil, batchIdx, propBoxes))
	headLoss := autograd.SoftmaxCrossEntropy(cls, propLabels)
	if len(boxRegRows) > 0 {
		br := autograd.GatherRows(boxReg, boxRegRows)
		headLoss = autograd.Add(headLoss, autograd.Scale(
			autograd.SmoothL1(br, tensor.FromSlice(boxRegTargets, len(boxRegRows), 4)), 2))
	}
	if len(maskRows) > 0 {
		mr := autograd.GatherRows(mask, maskRows)
		headLoss = autograd.Add(headLoss, autograd.BCEWithLogits(mr, maskTargets))
	}
	return autograd.Add(rpnLoss, headLoss)
}

// boxAsAnchor converts a corner box to center form for delta encoding.
func boxAsAnchor(b datasets.Box) Anchor {
	return Anchor{
		CX: (b.X1 + b.X2) / 2, CY: (b.Y1 + b.Y2) / 2,
		W: math.Max(b.X2-b.X1, 1e-6), H: math.Max(b.Y2-b.Y1, 1e-6),
	}
}

// jitterBox perturbs a box by up to amp pixels on each side, clamped to the
// image.
func jitterBox(b datasets.Box, rng *tensor.RNG, amp, size float64) datasets.Box {
	j := func() float64 { return rng.Uniform(-amp, amp) }
	out := datasets.Box{
		X1: clampF(b.X1+j(), 0, size-1), Y1: clampF(b.Y1+j(), 0, size-1),
		X2: clampF(b.X2+j(), 1, size), Y2: clampF(b.Y2+j(), 1, size),
		Class: b.Class,
	}
	if out.X2 <= out.X1+1 {
		out.X2 = out.X1 + 1
	}
	if out.Y2 <= out.Y1+1 {
		out.Y2 = out.Y1 + 1
	}
	return out
}

// randomBox draws a random box within the image.
func randomBox(rng *tensor.RNG, size float64) datasets.Box {
	w := rng.Uniform(3, size/2)
	h := rng.Uniform(3, size/2)
	x1 := rng.Uniform(0, size-w)
	y1 := rng.Uniform(0, size-h)
	return datasets.Box{X1: x1, Y1: y1, X2: x1 + w, Y2: y1 + h}
}

// DetectInstances runs two-stage inference on one validation image. Both
// stages run on the workload's eval tapes, so it is not safe for concurrent
// use, and a warm forward allocates nothing.
func (w *InstanceSegmentation) DetectInstances(exs []datasets.DetExample, id int) ([]metrics.Detection, []metrics.Detection) {
	e := &w.eval
	x := e.img.image(exs[id].Image)
	obj, reg, feat := w.Net.rpnForward(&e.img.ctx, x)

	// Top proposals by objectness, decoded and NMS-ed class-agnostically.
	e.cands = e.cands[:0]
	for ai, anchor := range w.Net.Anchors {
		score := 1 / (1 + math.Exp(-obj.Value.Data[ai]))
		if score < 0.3 {
			continue
		}
		var d [4]float64
		copy(d[:], reg.Value.Data[ai*4:(ai+1)*4])
		e.cands = append(e.cands, ScoredBox{Box: DecodeBox(anchor, d), Score: score})
	}
	props := NMS(e.cands, 0.4, 6)
	if len(props) == 0 {
		return nil, nil
	}
	e.batchIdx, e.boxes = e.batchIdx[:0], e.boxes[:0]
	for _, p := range props {
		e.batchIdx = append(e.batchIdx, 0)
		e.boxes = append(e.boxes, clipBox(p.Box, float64(w.DS.Cfg.Size)))
	}
	// The second stage's shapes follow the proposal count, so it runs on
	// that count's tape, the feature map entering it as a leaf.
	for len(e.heads) < len(props) {
		e.heads = append(e.heads, evalBatch{})
	}
	hb := &e.heads[len(props)-1]
	if hb.tape == nil {
		hb.tape = autograd.NewTape()
		hb.ctx = nn.Ctx{Tape: hb.tape}
	}
	hb.tape.Reset()
	e.rois = w.Net.rois(e.rois[:0], e.batchIdx, e.boxes)
	cls, boxReg, mask := w.Net.headsForward(&hb.ctx, hb.tape.LeafOf(feat.Value), e.rois)

	var boxDets, maskDets []metrics.Detection
	c1 := w.Net.Classes + 1
	size := w.DS.Cfg.Size
	e.best = e.best[:0]
	for i := range props {
		row := cls.Value.Data[i*c1 : (i+1)*c1]
		best, bi := row[0], 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		e.best = append(e.best, bi)
	}
	// Detections are emitted in ascending class order, each class's
	// proposals in row order; class 0 is background.
	for cInd := 1; cInd < c1; cInd++ {
		e.cb, e.rowOf = e.cb[:0], e.rowOf[:0]
		for i, bi := range e.best {
			if bi != cInd {
				continue
			}
			score := math.Exp(logSoftmaxAt(cls.Value.Data[i*c1:(i+1)*c1], cInd))
			var d [4]float64
			copy(d[:], boxReg.Value.Data[i*4:(i+1)*4])
			refined := clipBox(DecodeBox(boxAsAnchor(e.boxes[i]), d), float64(size))
			e.cb = append(e.cb, ScoredBox{Box: refined, Score: score})
			e.rowOf = append(e.rowOf, i)
		}
		if len(e.cb) == 0 {
			continue
		}
		kept := NMS(e.cb, w.HP.NMSIoU, 4)
		for _, k := range kept {
			b := k.Box
			b.Class = cInd
			boxDets = append(boxDets, metrics.Detection{ImageID: id, Box: b, Score: k.Score})
			// Find the source row to paste its mask.
			srcRow := -1
			for ci, c := range e.cb {
				if c.Box == k.Box && c.Score == k.Score {
					srcRow = e.rowOf[ci]
					break
				}
			}
			if srcRow < 0 {
				continue
			}
			full := make([]bool, size*size)
			ms := w.Net.MaskSize
			for py := 0; py < size; py++ {
				for px := 0; px < size; px++ {
					fx := (float64(px) + 0.5 - b.X1) / math.Max(b.X2-b.X1, 1e-6)
					fy := (float64(py) + 0.5 - b.Y1) / math.Max(b.Y2-b.Y1, 1e-6)
					if fx < 0 || fx >= 1 || fy < 0 || fy >= 1 {
						continue
					}
					gx := int(fx * float64(ms))
					gy := int(fy * float64(ms))
					logit := mask.Value.Data[srcRow*ms*ms+gy*ms+gx]
					if logit > 0 {
						full[py*size+px] = true
					}
				}
			}
			maskDets = append(maskDets, metrics.Detection{ImageID: id, Box: b, Score: k.Score, Mask: full})
		}
	}
	return boxDets, maskDets
}

func clipBox(b datasets.Box, size float64) datasets.Box {
	out := b
	out.X1 = clampF(b.X1, 0, size-1)
	out.Y1 = clampF(b.Y1, 0, size-1)
	out.X2 = clampF(b.X2, out.X1+1, size)
	out.Y2 = clampF(b.Y2, out.Y1+1, size)
	return out
}

func (w *InstanceSegmentation) evalAPs() (boxAP, maskAP float64) {
	e := &w.eval
	if e.boxGTs == nil {
		size := w.DS.Cfg.Size
		for id, ex := range w.DS.Val {
			for gi, b := range ex.Boxes {
				full := make([]bool, size*size)
				for p := 0; p < size*size; p++ {
					full[p] = ex.Masks[gi].Data[p] > 0.5
				}
				e.boxGTs = append(e.boxGTs, metrics.GroundTruth{ImageID: id, Box: b})
				e.maskGTs = append(e.maskGTs, metrics.GroundTruth{ImageID: id, Box: b, Mask: full})
			}
		}
	}
	e.boxDets, e.maskDets = e.boxDets[:0], e.maskDets[:0]
	for id := range w.DS.Val {
		bd, md := w.DetectInstances(w.DS.Val, id)
		e.boxDets = append(e.boxDets, bd...)
		e.maskDets = append(e.maskDets, md...)
	}
	return metrics.MeanAP50(e.boxDets, e.boxGTs, false), metrics.MeanAP50(e.maskDets, e.maskGTs, true)
}

// Evaluate is the benchmark's quality metric: min of the two AP-to-target
// ratios, so 1.0 means both Table-1 thresholds are met simultaneously.
func (w *InstanceSegmentation) Evaluate() float64 {
	box, mask := w.evalAPs()
	return math.Min(box/w.BoxTarget, mask/w.MaskTarget)
}
