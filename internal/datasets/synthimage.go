// Package datasets provides the synthetic stand-ins for the public datasets
// the paper's benchmarks train on (ImageNet, COCO, WMT EN-DE, MovieLens-20M,
// human Go games). Each generator is deterministic per seed and preserves
// the statistical structure the corresponding benchmark exercises, so the
// benchmarks train to their targets on one core without a download.
package datasets

import (
	"math"

	"repro/internal/tensor"
)

// ImageConfig parameterizes the synthetic classification dataset standing
// in for ILSVRC-2012 ImageNet (§3.1.1).
type ImageConfig struct {
	Classes  int
	TrainN   int
	ValN     int
	Channels int
	Size     int
	// Noise is the per-pixel Gaussian corruption added to each sample's
	// class prototype; it controls task difficulty (and therefore how
	// many epochs a model needs — the lever used to mirror the paper's
	// epochs-to-target behaviour at laptop scale).
	Noise float64
	Seed  uint64
}

// DefaultImageConfig is the calibration used by the image-classification
// benchmark: hard enough that a small ResNet needs multiple epochs to reach
// its quality target, small enough that tests run in seconds.
func DefaultImageConfig() ImageConfig {
	return ImageConfig{Classes: 8, TrainN: 320, ValN: 160, Channels: 3, Size: 10, Noise: 1.1, Seed: 1}
}

// ImageDataset holds generated train/validation splits.
type ImageDataset struct {
	Cfg         ImageConfig
	Train       *tensor.Tensor // [TrainN, C, S, S]
	TrainLabels []int
	Val         *tensor.Tensor // [ValN, C, S, S]
	ValLabels   []int
	prototypes  *tensor.Tensor // [Classes, C, S, S]
}

// GenerateImages builds the dataset: each class has a smooth low-frequency
// prototype image (sum of random 2-D sinusoids per channel); samples are
// the prototype plus i.i.d. Gaussian noise and a random sub-pixel shift.
func GenerateImages(cfg ImageConfig) *ImageDataset {
	rng := tensor.NewRNG(cfg.Seed)
	protoRNG := rng.Split(1)
	c, s := cfg.Channels, cfg.Size

	protos := tensor.New(cfg.Classes, c, s, s)
	for k := 0; k < cfg.Classes; k++ {
		for ch := 0; ch < c; ch++ {
			// Three sinusoidal components per channel.
			type comp struct{ fx, fy, ph, amp float64 }
			comps := make([]comp, 3)
			for i := range comps {
				comps[i] = comp{
					fx:  protoRNG.Uniform(0.5, 2.5),
					fy:  protoRNG.Uniform(0.5, 2.5),
					ph:  protoRNG.Uniform(0, 2*math.Pi),
					amp: protoRNG.Uniform(0.5, 1.0),
				}
			}
			for y := 0; y < s; y++ {
				for x := 0; x < s; x++ {
					v := 0.0
					for _, cp := range comps {
						v += cp.amp * math.Sin(2*math.Pi*(cp.fx*float64(x)+cp.fy*float64(y))/float64(s)+cp.ph)
					}
					protos.Set(v, k, ch, y, x)
				}
			}
		}
	}

	ds := &ImageDataset{Cfg: cfg, prototypes: protos}
	ds.Train, ds.TrainLabels = synthSplit(cfg, protos, rng.Split(2), cfg.TrainN)
	ds.Val, ds.ValLabels = synthSplit(cfg, protos, rng.Split(3), cfg.ValN)
	return ds
}

func synthSplit(cfg ImageConfig, protos *tensor.Tensor, rng *tensor.RNG, n int) (*tensor.Tensor, []int) {
	c, s := cfg.Channels, cfg.Size
	imgs := tensor.New(n, c, s, s)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		k := i % cfg.Classes // balanced classes
		labels[i] = k
		dx, dy := rng.Intn(3)-1, rng.Intn(3)-1
		for ch := 0; ch < c; ch++ {
			for y := 0; y < s; y++ {
				for x := 0; x < s; x++ {
					sy, sx := clampInt(y+dy, 0, s-1), clampInt(x+dx, 0, s-1)
					v := protos.At(k, ch, sy, sx) + rng.Norm()*cfg.Noise
					imgs.Set(v, i, ch, y, x)
				}
			}
		}
	}
	return imgs, labels
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// BatchInto assembles examples idx from split (train or val) into a
// [B,C,S,S] tensor plus labels. When aug is non-nil each image is
// augmented — the per-epoch stochastic work the timing rules require
// inside the timed loop. out is reused when its size matches len(idx)
// (only the batch dimension is rewritten) and labels when its capacity
// suffices. Pass nil for either to allocate fresh — the steady-state
// training loops pass persistent buffers so batch assembly allocates
// nothing once warm.
func (d *ImageDataset) BatchInto(out *tensor.Tensor, labels []int, train bool, idx []int, aug *Augment) (*tensor.Tensor, []int) {
	src, srcLabels := d.Train, d.TrainLabels
	if !train {
		src, srcLabels = d.Val, d.ValLabels
	}
	c, s := d.Cfg.Channels, d.Cfg.Size
	plane := c * s * s
	if out == nil || out.Size() != len(idx)*plane {
		out = tensor.New(len(idx), c, s, s)
	} else {
		out.Shape = append(out.Shape[:0], len(idx), c, s, s)
	}
	if cap(labels) < len(idx) {
		labels = make([]int, len(idx))
	}
	labels = labels[:len(idx)]
	for bi, id := range idx {
		copy(out.Data[bi*plane:(bi+1)*plane], src.Data[id*plane:(id+1)*plane])
		labels[bi] = srcLabels[id]
		if aug != nil {
			aug.Apply(out.Data[bi*plane:(bi+1)*plane], c, s)
		}
	}
	return out, labels
}

// Augment is the image augmentation pipeline: random horizontal flip,
// random crop with zero padding, and brightness jitter — the "random
// cropping, reflection, and color jitter" of §2.1.
type Augment struct {
	Flip    bool
	CropPad int
	Jitter  float64
	RNG     *tensor.RNG

	// scratch holds the pre-crop image copy, reused across Apply calls so
	// steady-state augmentation allocates nothing.
	scratch []float64
}

// Apply augments one CHW image stored in img (len == c*s*s) in place.
func (a *Augment) Apply(img []float64, c, s int) {
	if a.Flip && a.RNG.Float64() < 0.5 {
		for ch := 0; ch < c; ch++ {
			for y := 0; y < s; y++ {
				row := img[ch*s*s+y*s : ch*s*s+(y+1)*s]
				for i, j := 0, s-1; i < j; i, j = i+1, j-1 {
					row[i], row[j] = row[j], row[i]
				}
			}
		}
	}
	if a.CropPad > 0 {
		dx := a.RNG.Intn(2*a.CropPad+1) - a.CropPad
		dy := a.RNG.Intn(2*a.CropPad+1) - a.CropPad
		if dx != 0 || dy != 0 {
			a.scratch = append(a.scratch[:0], img...)
			orig := a.scratch
			for ch := 0; ch < c; ch++ {
				for y := 0; y < s; y++ {
					for x := 0; x < s; x++ {
						sy, sx := y+dy, x+dx
						v := 0.0
						if sy >= 0 && sy < s && sx >= 0 && sx < s {
							v = orig[ch*s*s+sy*s+sx]
						}
						img[ch*s*s+y*s+x] = v
					}
				}
			}
		}
	}
	if a.Jitter > 0 {
		shift := a.RNG.Uniform(-a.Jitter, a.Jitter)
		for i := range img {
			img[i] += shift
		}
	}
}
