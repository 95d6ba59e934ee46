package datasets

import (
	"sort"

	"repro/internal/tensor"
)

// RecConfig parameterizes the synthetic implicit-feedback dataset standing
// in for MovieLens-20M (§3.1.5). Following the paper's own v0.7 plan
// (Belletti et al., "Scalable realistic recommendation datasets through
// fractal expansions"), the user-item preference matrix is the Kronecker
// square of a small base matrix: P[(u1·bu+u2),(i1·bi+i2)] = B[u1,i1]·B[u2,i2].
// This preserves the block/self-similar structure — and therefore the
// embedding-table access skew — of real interaction data.
type RecConfig struct {
	BaseUsers int // users = BaseUsers²
	BaseItems int // items = BaseItems²
	// Rank is the latent rank of the base preference block. The Kronecker
	// square then has rank ≤ Rank², which keeps the expanded matrix
	// learnable by low-dimensional embeddings — real interaction matrices
	// are approximately low-rank, and fractal expansion preserves that.
	Rank int
	// PosPerUser is the number of observed positive interactions per user
	// (one random positive is held out for leave-one-out evaluation).
	PosPerUser int
	Noise      float64
	Seed       uint64
}

// DefaultRecConfig is the calibration used by the NCF benchmark.
func DefaultRecConfig() RecConfig {
	return RecConfig{BaseUsers: 12, BaseItems: 10, Rank: 2, PosPerUser: 9, Noise: 0.45, Seed: 4}
}

// Interaction is one observed (user, item) positive pair.
type Interaction struct {
	User, Item int
}

// RecDataset holds the interaction data and evaluation protocol state.
type RecDataset struct {
	Cfg   RecConfig
	Users int
	Items int
	// Train is the set of observed positive interactions.
	Train []Interaction
	// HeldOut[u] is the per-user leave-one-out positive item.
	HeldOut []int
	// Positive[u] is the set of all positive items per user (train +
	// held out), used to avoid sampling false negatives.
	Positive []map[int]bool
}

// GenerateRec builds the dataset by fractal expansion of a random base
// preference block, then sampling each user's top-scoring items (with
// noise) as positives.
func GenerateRec(cfg RecConfig) *RecDataset {
	rng := tensor.NewRNG(cfg.Seed)
	bu, bi := cfg.BaseUsers, cfg.BaseItems
	rank := cfg.Rank
	if rank <= 0 {
		rank = 2
	}
	// Low-rank base block B = U·Vᵀ (entries shifted positive).
	uf := make([]float64, bu*rank)
	vf := make([]float64, bi*rank)
	for i := range uf {
		uf[i] = rng.Norm()
	}
	for i := range vf {
		vf[i] = rng.Norm()
	}
	base := make([]float64, bu*bi)
	for u := 0; u < bu; u++ {
		for it := 0; it < bi; it++ {
			s := 0.0
			for f := 0; f < rank; f++ {
				s += uf[u*rank+f] * vf[it*rank+f]
			}
			base[u*bi+it] = s
		}
	}
	users, items := bu*bu, bi*bi
	ds := &RecDataset{
		Cfg:      cfg,
		Users:    users,
		Items:    items,
		HeldOut:  make([]int, users),
		Positive: make([]map[int]bool, users),
	}
	sampleRNG := rng.Split(1)
	type scored struct {
		item  int
		score float64
	}
	for u := 0; u < users; u++ {
		u1, u2 := u/bu, u%bu
		scores := make([]scored, items)
		for it := 0; it < items; it++ {
			i1, i2 := it/bi, it%bi
			p := base[u1*bi+i1] * base[u2*bi+i2]
			scores[it] = scored{item: it, score: p + sampleRNG.Norm()*cfg.Noise}
		}
		sort.Slice(scores, func(a, b int) bool { return scores[a].score > scores[b].score })
		ds.Positive[u] = make(map[int]bool, cfg.PosPerUser)
		for k := 0; k < cfg.PosPerUser; k++ {
			ds.Positive[u][scores[k].item] = true
		}
		// Hold out one random positive for leave-one-out eval.
		hold := sampleRNG.Intn(cfg.PosPerUser)
		ds.HeldOut[u] = scores[hold].item
		for k := 0; k < cfg.PosPerUser; k++ {
			if k == hold {
				continue
			}
			ds.Train = append(ds.Train, Interaction{User: u, Item: scores[k].item})
		}
	}
	return ds
}

// SampleNegatives returns n items the user has not interacted with.
func (d *RecDataset) SampleNegatives(u, n int, rng *tensor.RNG) []int {
	return d.appendNegatives(make([]int, 0, n), u, n, rng)
}

// appendNegatives is the one rejection-sampling implementation behind both
// SampleNegatives and AppendTrainBatch: it appends n non-positive items
// for user u to dst. Keeping a single copy keeps the rng draw order — and
// therefore the serial-vs-distributed bit-identity oracle — in one place.
func (d *RecDataset) appendNegatives(dst []int, u, n int, rng *tensor.RNG) []int {
	for k := 0; k < n; {
		it := rng.Intn(d.Items)
		if !d.Positive[u][it] {
			dst = append(dst, it)
			k++
		}
	}
	return dst
}

// AppendTrainBatch builds a training minibatch: the positives at the given
// interaction indices plus negRatio sampled negatives per positive,
// appended to the parallel user/item/label slices (pass buf[:0] to reuse
// capacity across steps — the allocation-free form the steady-state
// training loops use; nil allocates).
func (d *RecDataset) AppendTrainBatch(users, items []int, labels []float64, idx []int, negRatio int, rng *tensor.RNG) ([]int, []int, []float64) {
	for _, id := range idx {
		in := d.Train[id]
		users = append(users, in.User)
		items = append(items, in.Item)
		labels = append(labels, 1)
		start := len(items)
		items = d.appendNegatives(items, in.User, negRatio, rng)
		for range items[start:] {
			users = append(users, in.User)
			labels = append(labels, 0)
		}
	}
	return users, items, labels
}

// EvalLists builds the HR@K evaluation protocol of He et al. (2017): for
// each user, the held-out positive plus numNeg sampled negatives. The RNG
// should be freshly seeded per evaluation for reproducibility.
func (d *RecDataset) EvalLists(numNeg int, rng *tensor.RNG) (users []int, candidates [][]int) {
	users = make([]int, d.Users)
	candidates = make([][]int, d.Users)
	for u := 0; u < d.Users; u++ {
		users[u] = u
		list := []int{d.HeldOut[u]}
		list = append(list, d.SampleNegatives(u, numNeg, rng)...)
		candidates[u] = list
	}
	return users, candidates
}
