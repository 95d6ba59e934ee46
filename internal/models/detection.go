package models

import (
	"math"
	"slices"

	"repro/internal/autograd"
	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Anchor is a reference box in image coordinates.
type Anchor struct {
	CX, CY, W, H float64
}

// Box returns the anchor as a corner-form box.
func (a Anchor) Box() datasets.Box {
	return datasets.Box{X1: a.CX - a.W/2, Y1: a.CY - a.H/2, X2: a.CX + a.W/2, Y2: a.CY + a.H/2}
}

// AnchorShape is one (width, height) anchor template.
type AnchorShape struct{ W, H float64 }

// DefaultAnchorShapes builds SSD-style templates: each scale at aspect
// ratios 1:1, 2:1, and 1:2.
func DefaultAnchorShapes(scales []float64) []AnchorShape {
	var out []AnchorShape
	for _, s := range scales {
		out = append(out,
			AnchorShape{W: s, H: s},
			AnchorShape{W: s * 1.4, H: s / 1.4},
			AnchorShape{W: s / 1.4, H: s * 1.4},
		)
	}
	return out
}

// GridAnchors places the anchor shapes at every cell center of a
// gridS×gridS feature map with the given stride, ordered raster-major then
// by shape — matching autograd.SpatialRows row ordering.
func GridAnchors(gridS, stride int, shapes []AnchorShape) []Anchor {
	var out []Anchor
	for y := 0; y < gridS; y++ {
		for x := 0; x < gridS; x++ {
			cx := float64(x)*float64(stride) + float64(stride)/2
			cy := float64(y)*float64(stride) + float64(stride)/2
			for _, sh := range shapes {
				out = append(out, Anchor{CX: cx, CY: cy, W: sh.W, H: sh.H})
			}
		}
	}
	return out
}

// EncodeBox computes regression targets (dx, dy, dw, dh) for a ground-truth
// box relative to an anchor, the standard SSD/Faster-R-CNN parameterization.
func EncodeBox(a Anchor, g datasets.Box) [4]float64 {
	gw := math.Max(g.X2-g.X1, 1e-6)
	gh := math.Max(g.Y2-g.Y1, 1e-6)
	gcx := (g.X1 + g.X2) / 2
	gcy := (g.Y1 + g.Y2) / 2
	return [4]float64{
		(gcx - a.CX) / a.W,
		(gcy - a.CY) / a.H,
		math.Log(gw / a.W),
		math.Log(gh / a.H),
	}
}

// DecodeBox inverts EncodeBox.
func DecodeBox(a Anchor, d [4]float64) datasets.Box {
	cx := a.CX + d[0]*a.W
	cy := a.CY + d[1]*a.H
	w := a.W * math.Exp(clampF(d[2], -4, 4))
	h := a.H * math.Exp(clampF(d[3], -4, 4))
	return datasets.Box{X1: cx - w/2, Y1: cy - h/2, X2: cx + w/2, Y2: cy + h/2}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MatchAnchors assigns each anchor a label: the matched GT index for
// positives, -2 for background, -1 for ignored (intermediate IoU). Every GT
// is force-matched to its best anchor so no object goes untrained.
func MatchAnchors(anchors []Anchor, gts []datasets.Box, posThresh, negThresh float64) []int {
	match := make([]int, len(anchors))
	for i := range match {
		match[i] = -2
	}
	bestForGT := make([]int, len(gts))
	bestIoUForGT := make([]float64, len(gts))
	for i := range bestForGT {
		bestForGT[i] = -1
	}
	for ai, a := range anchors {
		ab := a.Box()
		bestIoU, bestGT := 0.0, -1
		for gi, g := range gts {
			iou := datasets.IoU(ab, g)
			if iou > bestIoU {
				bestIoU, bestGT = iou, gi
			}
			if iou > bestIoUForGT[gi] {
				bestIoUForGT[gi], bestForGT[gi] = iou, ai
			}
		}
		switch {
		case bestIoU >= posThresh:
			match[ai] = bestGT
		case bestIoU >= negThresh:
			match[ai] = -1 // ignore band
		}
	}
	for gi, ai := range bestForGT {
		if ai >= 0 {
			match[ai] = gi
		}
	}
	return match
}

// ScoredBox is a decoded detection before/after NMS.
type ScoredBox struct {
	Box   datasets.Box
	Score float64
}

// byScoreDesc orders boxes by descending score. Boxes whose scores
// compare neither way (equal, or either NaN) tie, as sort.SliceStable with
// a > b would tie them, so a stable sort keeps them in input order.
func byScoreDesc(a, b ScoredBox) int {
	switch {
	case a.Score > b.Score:
		return -1
	case b.Score > a.Score:
		return 1
	}
	return 0
}

// NMS performs greedy non-maximum suppression at the given IoU threshold,
// keeping at most keep boxes. Input need not be sorted.
func NMS(boxes []ScoredBox, iouThresh float64, keep int) []ScoredBox {
	sorted := append([]ScoredBox(nil), boxes...)
	slices.SortStableFunc(sorted, byScoreDesc)
	// The kept boxes compact into the front of sorted: the next one is
	// written at or behind the box being read.
	out := sorted[:0]
	for _, b := range sorted {
		ok := true
		for _, k := range out {
			if datasets.IoU(b.Box, k.Box) >= iouThresh {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, b)
			if len(out) >= keep {
				break
			}
		}
	}
	return out
}

// image rewinds b's tape and copies one detection image into b.x as a
// batch of one, returning it as the forward's input.
func (b *evalBatch) image(img *tensor.Tensor) *autograd.Var {
	if b.tape == nil {
		b.tape = autograd.NewTape()
		b.ctx = nn.Ctx{Tape: b.tape}
	}
	if b.x == nil || len(b.x.Data) != len(img.Data) {
		b.x = tensor.New(append([]int{1}, img.Shape...)...)
	}
	b.tape.Reset()
	copy(b.x.Data, img.Data)
	return b.tape.ConstOf(b.x)
}
