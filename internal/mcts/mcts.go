// Package mcts implements PUCT Monte-Carlo tree search over the Go engine,
// the self-play data generator of the MiniGo benchmark (§3.1.4: "training
// uses self-play between agents to generate data, which performs many
// forward passes through the model"). It also provides the heuristic
// oracle whose moves stand in for the paper's human reference games.
package mcts

import (
	"math"

	"repro/internal/goboard"
	"repro/internal/tensor"
)

// Evaluator scores a position: a prior probability per move (length
// NumMoves, masked to legal moves by the search) and a value in [-1, 1]
// from the side-to-move's perspective.
type Evaluator interface {
	Evaluate(b *goboard.Board) (policy []float64, value float64)
}

// Config holds search parameters.
type Config struct {
	Sims  int     // simulations per move decision
	CPuct float64 // exploration constant
	Komi  float64
	// DirichletEps mixes root noise for self-play exploration (0 = off).
	DirichletEps   float64
	DirichletAlpha float64
}

type node struct {
	board    *goboard.Board
	children map[int]*node
	prior    map[int]float64
	visits   map[int]int
	valueSum map[int]float64
	legal    []int
	expanded bool
}

// Search runs PUCT search from board and returns the visit distribution
// over moves (length NumMoves).
type Search struct {
	Cfg  Config
	Eval Evaluator
	RNG  *tensor.RNG
}

// New returns a search with the given evaluator and RNG.
func New(cfg Config, eval Evaluator, rng *tensor.RNG) *Search {
	return &Search{Cfg: cfg, Eval: eval, RNG: rng}
}

func (s *Search) expand(n *node) float64 {
	policy, value := s.Eval.Evaluate(n.board)
	n.legal = n.board.LegalMoves()
	n.prior = make(map[int]float64, len(n.legal))
	n.visits = make(map[int]int, len(n.legal))
	n.valueSum = make(map[int]float64, len(n.legal))
	n.children = make(map[int]*node, len(n.legal))
	total := 0.0
	for _, m := range n.legal {
		total += policy[m]
	}
	for _, m := range n.legal {
		if total > 0 {
			n.prior[m] = policy[m] / total
		} else {
			n.prior[m] = 1 / float64(len(n.legal))
		}
	}
	n.expanded = true
	return value
}

// addRootNoise mixes Dirichlet noise into root priors (self-play only).
func (s *Search) addRootNoise(root *node) {
	if s.Cfg.DirichletEps <= 0 || len(root.legal) == 0 {
		return
	}
	// Sample Dirichlet(alpha) via normalized Gamma draws; for small alpha
	// use the Marsaglia-Tsang method through boosting.
	noise := make([]float64, len(root.legal))
	sum := 0.0
	for i := range noise {
		noise[i] = s.gammaSample(s.Cfg.DirichletAlpha)
		sum += noise[i]
	}
	if sum == 0 {
		return
	}
	for i, m := range root.legal {
		root.prior[m] = (1-s.Cfg.DirichletEps)*root.prior[m] + s.Cfg.DirichletEps*noise[i]/sum
	}
}

// gammaSample draws from Gamma(alpha, 1).
func (s *Search) gammaSample(alpha float64) float64 {
	if alpha < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a)
		u := s.RNG.Float64()
		if u == 0 {
			u = 1e-12
		}
		return s.gammaSample(alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := s.RNG.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.RNG.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// simulate runs one PUCT descent from n, returning the value from the
// perspective of the player to move at n.
func (s *Search) simulate(n *node, depth int) float64 {
	if n.board.GameOver() || depth > 2*n.board.Size*n.board.Size {
		// Terminal: score the game.
		winner := n.board.Winner(s.Cfg.Komi)
		switch {
		case winner == n.board.ToMove:
			return 1
		case winner == n.board.ToMove.Opponent():
			return -1
		}
		return 0
	}
	if !n.expanded {
		return s.expand(n)
	}
	// Select the PUCT-maximizing move.
	totalVisits := 0
	for _, m := range n.legal {
		totalVisits += n.visits[m]
	}
	sqrtTotal := math.Sqrt(float64(totalVisits) + 1)
	bestMove, bestScore := -1, math.Inf(-1)
	for _, m := range n.legal {
		q := 0.0
		if v := n.visits[m]; v > 0 {
			q = n.valueSum[m] / float64(v)
		}
		u := s.Cfg.CPuct * n.prior[m] * sqrtTotal / (1 + float64(n.visits[m]))
		if sc := q + u; sc > bestScore {
			bestScore, bestMove = sc, m
		}
	}
	child, ok := n.children[bestMove]
	if !ok {
		cb := n.board.Clone()
		if err := cb.Play(bestMove); err != nil {
			// Legal list is computed at expansion; a legal move cannot
			// fail here.
			panic(err)
		}
		child = &node{board: cb}
		n.children[bestMove] = child
	}
	// Value flips perspective between plies.
	v := -s.simulate(child, depth+1)
	n.visits[bestMove]++
	n.valueSum[bestMove] += v
	return v
}

// Run performs Cfg.Sims simulations and returns the visit-count
// distribution over the full move space (normalized).
func (s *Search) Run(b *goboard.Board, selfPlay bool) []float64 {
	root := &node{board: b.Clone()}
	s.expand(root)
	if selfPlay {
		s.addRootNoise(root)
	}
	for i := 0; i < s.Cfg.Sims; i++ {
		s.simulate(root, 0)
	}
	dist := make([]float64, b.NumMoves())
	total := 0
	for _, m := range root.legal {
		dist[m] = float64(root.visits[m])
		total += root.visits[m]
	}
	if total == 0 {
		for _, m := range root.legal {
			dist[m] = 1 / float64(len(root.legal))
		}
		return dist
	}
	for i := range dist {
		dist[i] /= float64(total)
	}
	return dist
}

// BestMove returns the most-visited move of a Run distribution.
func BestMove(dist []float64) int {
	best, bi := -1.0, 0
	for i, v := range dist {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// SampleMove draws a move proportional to the distribution (temperature 1),
// used in the opening of self-play games for diversity.
func SampleMove(dist []float64, rng *tensor.RNG) int {
	r := rng.Float64()
	acc := 0.0
	for i, v := range dist {
		acc += v
		if r < acc {
			return i
		}
	}
	return len(dist) - 1
}

// HeuristicEvaluator is the network-free oracle evaluator: uniform priors
// with a value from the current area score. A deeper search with this
// evaluator produces the "reference games" standing in for the paper's
// human pro games.
type HeuristicEvaluator struct{ Komi float64 }

// Evaluate implements Evaluator.
func (h HeuristicEvaluator) Evaluate(b *goboard.Board) ([]float64, float64) {
	policy := make([]float64, b.NumMoves())
	for i := range policy {
		policy[i] = 1
	}
	// Slightly discourage pass while the board is mostly empty.
	policy[b.Pass()] = 0.05
	score := b.Score(h.Komi)
	// Squash the score into [-1, 1] from the side to move's perspective.
	v := math.Tanh(score / float64(b.Size))
	if b.ToMove == goboard.White {
		v = -v
	}
	return policy, v
}

// PlayGame plays one full game with independent searches for both sides,
// recording (features, policy target, side to move) at every position.
// Outcome z is +1 when the recorded side to move eventually won.
type GameRecord struct {
	Features [][]float64
	Policies [][]float64
	Values   []float64 // outcome from the recorded position's perspective
	Moves    []int
	Winner   goboard.Color
}

// SharpenDist raises a distribution to the given power and renormalizes —
// temperature sharpening of visit-count policy targets (power 1 = raw
// AlphaZero targets; power 2 concentrates mass on the search's preference,
// which speeds small-scale policy iteration).
func SharpenDist(dist []float64, power float64) []float64 {
	out := make([]float64, len(dist))
	s := 0.0
	for i, v := range dist {
		out[i] = math.Pow(v, power)
		s += out[i]
	}
	if s > 0 {
		for i := range out {
			out[i] /= s
		}
	}
	return out
}

// SelfPlay generates one game with the given search (shared by both sides);
// tempMoves controls how many opening moves are sampled rather than argmax.
func SelfPlay(s *Search, size, tempMoves, maxMoves int) *GameRecord {
	b := goboard.New(size)
	rec := &GameRecord{}
	var toMove []goboard.Color
	for !b.GameOver() && b.MoveCount < maxMoves {
		dist := s.Run(b, true)
		rec.Features = append(rec.Features, b.Features())
		rec.Policies = append(rec.Policies, dist)
		toMove = append(toMove, b.ToMove)
		var move int
		if b.MoveCount < tempMoves {
			move = SampleMove(dist, s.RNG)
		} else {
			move = BestMove(dist)
		}
		rec.Moves = append(rec.Moves, move)
		if err := b.Play(move); err != nil {
			panic(err)
		}
	}
	rec.Winner = b.Winner(s.Cfg.Komi)
	rec.Values = make([]float64, len(toMove))
	for i, c := range toMove {
		switch {
		case rec.Winner == c:
			rec.Values[i] = 1
		case rec.Winner == c.Opponent():
			rec.Values[i] = -1
		}
	}
	return rec
}

// TacticalEvaluator is the structured oracle evaluator whose deep searches
// produce the reference games standing in for the paper's human pro games.
// Its priors encode the tactical shape of strong small-board play —
// captures, atari rescues, center-weighted openings, self-atari avoidance —
// making the oracle's moves predictable by a policy network in exactly the
// way human moves are.
type TacticalEvaluator struct{ Komi float64 }

// Evaluate implements Evaluator.
func (t TacticalEvaluator) Evaluate(b *goboard.Board) ([]float64, float64) {
	n := b.NumMoves()
	policy := make([]float64, n)
	size := b.Size
	center := float64(size-1) / 2
	for m := 0; m < n-1; m++ {
		if b.Points[m] != goboard.Empty {
			continue
		}
		prior := 1.0
		if c := b.CapturesIfPlayed(m); c > 0 {
			prior += 12 * float64(c)
		}
		if b.SavesAtariIfPlayed(m) {
			prior += 8
		}
		if b.SelfAtariIfPlayed(m) {
			prior *= 0.05
		}
		// Gaussian center preference (dominant in the opening).
		y, x := float64(m/size), float64(m%size)
		d2 := (y-center)*(y-center) + (x-center)*(x-center)
		prior += 2.5 * math.Exp(-d2/(0.5*float64(size)))
		policy[m] = prior
	}
	policy[n-1] = 0.05 // pass discouraged until forced
	score := b.Score(t.Komi)
	v := math.Tanh(score / float64(size))
	if b.ToMove == goboard.White {
		v = -v
	}
	return policy, v
}
