// Package metrics implements the quality metrics of Table 1: Top-1
// accuracy (image classification), mAP at IoU 0.5 for boxes and masks
// (detection/segmentation), BLEU (translation), HR@10 (recommendation),
// and move-prediction accuracy (reinforcement learning).
package metrics

import (
	"encoding/binary"
	"math"
	"sort"

	"repro/internal/datasets"
)

// Top1Accuracy returns the fraction of rows whose argmax equals the label.
func Top1Accuracy(pred []int, labels []int) float64 {
	if len(pred) != len(labels) {
		panic("metrics: Top1Accuracy length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	hits := 0
	for i := range pred {
		if pred[i] == labels[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(pred))
}

// Detection is one scored detection for AP evaluation.
type Detection struct {
	ImageID int
	Box     datasets.Box
	Score   float64
	// Mask is optional; when present mask IoU is used instead of box IoU
	// (instance segmentation evaluation).
	Mask []bool
}

// GroundTruth is one annotated object.
type GroundTruth struct {
	ImageID int
	Box     datasets.Box
	Mask    []bool
}

// MaskIoU computes intersection-over-union of two binary masks.
func MaskIoU(a, b []bool) float64 {
	if len(a) != len(b) {
		panic("metrics: MaskIoU length mismatch")
	}
	inter, union := 0, 0
	for i := range a {
		if a[i] && b[i] {
			inter++
		}
		if a[i] || b[i] {
			union++
		}
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// APAtIoU computes all-point interpolated AP for one class at one IoU
// threshold, the standard COCO procedure: sort by score, greedily match to
// unmatched ground truth, build the precision envelope. useMask selects
// mask IoU instead of box IoU.
func APAtIoU(dets []Detection, gts []GroundTruth, iouThresh float64, useMask bool) float64 {
	if len(gts) == 0 {
		return 0
	}
	sorted := append([]Detection(nil), dets...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Score > sorted[j].Score })

	matched := make([]bool, len(gts))
	tp := make([]int, len(sorted))
	for di, d := range sorted {
		bestIoU, bestGT := 0.0, -1
		for gi, g := range gts {
			if g.ImageID != d.ImageID || matched[gi] {
				continue
			}
			var iou float64
			if useMask {
				iou = MaskIoU(d.Mask, g.Mask)
			} else {
				iou = datasets.IoU(d.Box, g.Box)
			}
			if iou > bestIoU {
				bestIoU, bestGT = iou, gi
			}
		}
		if bestGT >= 0 && bestIoU >= iouThresh {
			matched[bestGT] = true
			tp[di] = 1
		}
	}
	// Precision-recall curve with all-point interpolation.
	ap := 0.0
	cumTP := 0
	prevRecall := 0.0
	precisions := make([]float64, 0, len(sorted))
	recalls := make([]float64, 0, len(sorted))
	for i := range sorted {
		cumTP += tp[i]
		precisions = append(precisions, float64(cumTP)/float64(i+1))
		recalls = append(recalls, float64(cumTP)/float64(len(gts)))
	}
	// Precision envelope (monotone non-increasing from the right).
	for i := len(precisions) - 2; i >= 0; i-- {
		if precisions[i+1] > precisions[i] {
			precisions[i] = precisions[i+1]
		}
	}
	for i := range precisions {
		ap += precisions[i] * (recalls[i] - prevRecall)
		prevRecall = recalls[i]
	}
	return ap
}

// sortedClasses returns the class ids of a presence set in ascending
// order, so per-class AP accumulation is independent of map iteration
// order (float addition is not associative).
func sortedClasses(classes map[int]bool) []int {
	out := make([]int, 0, len(classes))
	for c := range classes {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// MeanAP50 computes mAP at IoU 0.5, the metric every detection target
// here is set in (the SSD benchmark's 21.2 mAP regime, Mask R-CNN's box
// and mask targets): APAtIoU averaged over the classes present in gts, in
// ascending order. Detections and ground truth are grouped by Box.Class.
// useMask switches to mask IoU (the "Mask min AP" of Table 1).
func MeanAP50(dets []Detection, gts []GroundTruth, useMask bool) float64 {
	classes := map[int]bool{}
	for _, g := range gts {
		classes[g.Box.Class] = true
	}
	if len(classes) == 0 {
		return 0
	}
	total := 0.0
	for _, cls := range sortedClasses(classes) {
		var cd []Detection
		for _, d := range dets {
			if d.Box.Class == cls {
				cd = append(cd, d)
			}
		}
		var cg []GroundTruth
		for _, g := range gts {
			if g.Box.Class == cls {
				cg = append(cg, g)
			}
		}
		total += APAtIoU(cd, cg, 0.5, useMask)
	}
	return total / float64(len(classes))
}

// BLEU computes corpus-level BLEU-4 with brevity penalty over candidate/
// reference token-id sequences (Papineni et al., 2002), the translation
// quality metric of §3.1.3. Returns a score in [0, 100].
func BLEU(candidates, references [][]int) float64 {
	if len(candidates) != len(references) {
		panic("metrics: BLEU length mismatch")
	}
	const maxN = 4
	matches := make([]float64, maxN)
	totals := make([]float64, maxN)
	candLen, refLen := 0, 0
	for i := range candidates {
		cand, ref := candidates[i], references[i]
		candLen += len(cand)
		refLen += len(ref)
		for n := 1; n <= maxN; n++ {
			cc := ngramCounts(cand, n)
			rc := ngramCounts(ref, n)
			// Clipped-count sum in an int: integer addition is exact, so
			// the total is independent of the map's iteration order
			// (float accumulation here would make BLEU order-sensitive).
			m := 0
			for g, c := range cc {
				if r := rc[g]; r < c {
					c = r
				}
				m += c
			}
			matches[n-1] += float64(m)
			if l := len(cand) - n + 1; l > 0 {
				totals[n-1] += float64(l)
			}
		}
	}
	logSum := 0.0
	for n := 0; n < maxN; n++ {
		if matches[n] == 0 || totals[n] == 0 {
			return 0
		}
		logSum += math.Log(matches[n] / totals[n])
	}
	bp := 1.0
	if candLen < refLen && candLen > 0 {
		bp = math.Exp(1 - float64(refLen)/float64(candLen))
	}
	return 100 * bp * math.Exp(logSum/maxN)
}

// ngramCounts returns the multiset of n-grams keyed by the varint byte
// encoding of their token ids. An earlier version encoded ids with
// string(rune(id)), which collapses every id >= 0x110000 and the surrogate
// range 0xD800–0xDFFF to U+FFFD — completely different sequences in those
// ranges scored BLEU 100 against each other. Varint bytes are injective for
// all int token ids.
func ngramCounts(seq []int, n int) map[string]int {
	out := map[string]int{}
	buf := make([]byte, 0, n*binary.MaxVarintLen64)
	for i := 0; i+n <= len(seq); i++ {
		buf = buf[:0]
		for j := i; j < i+n; j++ {
			buf = binary.AppendVarint(buf, int64(seq[j]))
		}
		out[string(buf)]++
	}
	return out
}

// HitRateAtK computes HR@K: the fraction of users whose held-out item
// (candidates[u][0] by convention) ranks in the top K by score. A NaN
// held-out score is a miss and a NaN negative outranks the held-out item,
// so a diverged model never scores as converged.
func HitRateAtK(scores [][]float64, k int) float64 {
	if len(scores) == 0 {
		return 0
	}
	hits := 0
	for _, s := range scores {
		target := s[0]
		if math.IsNaN(target) {
			continue // a diverged model's NaN score is a miss
		}
		rank := 0
		for _, v := range s[1:] {
			if !(v < target) { // ties and NaN negatives outrank the held-out item
				rank++
			}
		}
		if rank < k {
			hits++
		}
	}
	return float64(hits) / float64(len(scores))
}

// MoveMatch returns the fraction of predicted moves equal to reference
// moves — the MiniGo quality metric ("percentage of predicted moves that
// match human reference games", §3.1.4; our reference is an MCTS oracle).
func MoveMatch(pred, ref []int) float64 {
	return Top1Accuracy(pred, ref)
}
