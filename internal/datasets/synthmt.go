package datasets

import "repro/internal/tensor"

// Token ids reserved by the translation datasets.
const (
	PAD = 0 // padding
	BOS = 1 // beginning of sequence (decoder start)
	EOS = 2 // end of sequence
	// FirstWord is the first ordinary vocabulary token.
	FirstWord = 3
)

// MTPair is one parallel sentence pair.
type MTPair struct {
	Src []int
	Tgt []int // excludes BOS, includes EOS
}

// MTConfig parameterizes the synthetic parallel corpus standing in for WMT
// EN-DE (§3.1.3). The "language" is an invertible token transduction: each
// target token is a fixed permutation of the corresponding source token and
// the sequence is reversed, so the task requires the full encoder-decoder
// machinery (alignment + token mapping) while remaining learnable at small
// scale.
type MTConfig struct {
	Vocab  int // total vocabulary including specials
	MinLen int
	MaxLen int
	TrainN int
	ValN   int
	// Reverse controls whether the target sequence is the reversed
	// source; reversal is what makes attention genuinely useful.
	Reverse bool
	Seed    uint64
}

// DefaultMTConfig is the calibration used by both translation benchmarks.
func DefaultMTConfig() MTConfig {
	return MTConfig{Vocab: 24, MinLen: 4, MaxLen: 8, TrainN: 768, ValN: 128, Reverse: true, Seed: 3}
}

// MTDataset holds the parallel corpus and the hidden transduction rule.
type MTDataset struct {
	Cfg   MTConfig
	Train []MTPair
	Val   []MTPair
	perm  []int
}

// GenerateMT builds the corpus. The token permutation is drawn from the
// seed, then train/val pairs are sampled i.i.d.
func GenerateMT(cfg MTConfig) *MTDataset {
	rng := tensor.NewRNG(cfg.Seed)
	words := cfg.Vocab - FirstWord
	if words < 2 {
		panic("datasets: MT vocab too small")
	}
	p := rng.Perm(words)
	perm := make([]int, cfg.Vocab)
	for i := 0; i < FirstWord; i++ {
		perm[i] = i
	}
	for i, v := range p {
		perm[FirstWord+i] = FirstWord + v
	}
	ds := &MTDataset{Cfg: cfg, perm: perm}
	ds.Train = genMTSplit(cfg, perm, rng.Split(1), cfg.TrainN)
	ds.Val = genMTSplit(cfg, perm, rng.Split(2), cfg.ValN)
	return ds
}

func genMTSplit(cfg MTConfig, perm []int, rng *tensor.RNG, n int) []MTPair {
	out := make([]MTPair, n)
	words := cfg.Vocab - FirstWord
	for i := range out {
		l := cfg.MinLen + rng.Intn(cfg.MaxLen-cfg.MinLen+1)
		src := make([]int, l)
		for j := range src {
			src[j] = FirstWord + rng.Intn(words)
		}
		out[i] = MTPair{Src: src, Tgt: Translate(src, perm, cfg.Reverse)}
	}
	return out
}

// Translate applies the hidden transduction: permute each token and
// optionally reverse, then append EOS. Exported so tests can verify model
// outputs against ground truth.
func Translate(src []int, perm []int, reverse bool) []int {
	tgt := make([]int, 0, len(src)+1)
	if reverse {
		for i := len(src) - 1; i >= 0; i-- {
			tgt = append(tgt, perm[src[i]])
		}
	} else {
		for _, s := range src {
			tgt = append(tgt, perm[s])
		}
	}
	return append(tgt, EOS)
}

// PadBatch packs pairs into fixed-length source and target id matrices.
// Source rows are padded with PAD to srcLen; decoder input rows start with
// BOS; label rows align with decoder input and use -1 (ignore) on padding.
func PadBatch(pairs []MTPair, srcLen, tgtLen int) (src [][]int, decIn [][]int, labels [][]int) {
	src = make([][]int, len(pairs))
	decIn = make([][]int, len(pairs))
	labels = make([][]int, len(pairs))
	for i, p := range pairs {
		s := make([]int, srcLen)
		for j := 0; j < srcLen; j++ {
			if j < len(p.Src) {
				s[j] = p.Src[j]
			} else {
				s[j] = PAD
			}
		}
		di := make([]int, tgtLen)
		lb := make([]int, tgtLen)
		di[0] = BOS
		for j := 0; j < tgtLen; j++ {
			if j < len(p.Tgt) {
				lb[j] = p.Tgt[j]
			} else {
				lb[j] = -1
			}
			if j+1 < tgtLen {
				if j < len(p.Tgt) {
					di[j+1] = p.Tgt[j]
				} else {
					di[j+1] = PAD
				}
			}
		}
		src[i], decIn[i], labels[i] = s, di, lb
	}
	return src, decIn, labels
}
