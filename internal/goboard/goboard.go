// Package goboard implements the game of Go: move legality, captures,
// ko/superko, and Tromp-Taylor area scoring. The MiniGo benchmark (§3.1.4)
// plays on a 9×9 board; the engine supports any square size so tests can
// use smaller boards.
package goboard

import "fmt"

// Color identifies a player or an empty point.
type Color int8

const (
	// Empty marks a vacant point.
	Empty Color = iota
	// Black moves first.
	Black
	// White moves second.
	White
)

// Opponent returns the other player.
func (c Color) Opponent() Color {
	switch c {
	case Black:
		return White
	case White:
		return Black
	}
	return Empty
}

// String returns "B", "W", or ".".
func (c Color) String() string {
	switch c {
	case Black:
		return "B"
	case White:
		return "W"
	}
	return "."
}

// Board is a Go position plus the state needed for legality: side to move,
// simple-ko point, positional-superko history, and consecutive pass count.
type Board struct {
	Size   int
	Points []Color
	ToMove Color
	// Passes counts consecutive passes; two ends the game.
	Passes int
	// MoveCount is the number of moves played (including passes).
	MoveCount int

	koPoint int // index illegal due to simple ko, -1 if none
	history map[uint64]bool
	zobrist uint64
}

// Pass is the move index representing a pass.
func (b *Board) Pass() int { return b.Size * b.Size }

// NumMoves is the action-space size: every point plus pass.
func (b *Board) NumMoves() int { return b.Size*b.Size + 1 }

// zobristKeys are lazily built per size: [point][color] random keys.
var zobristKeys = map[int][][2]uint64{}

func keysFor(size int) [][2]uint64 {
	if k, ok := zobristKeys[size]; ok {
		return k
	}
	// Deterministic keys from splitmix-like expansion.
	k := make([][2]uint64, size*size)
	state := uint64(0x12345678)*uint64(size) + 0x9e3779b97f4a7c15
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range k {
		k[i][0] = next()
		k[i][1] = next()
	}
	zobristKeys[size] = k
	return k
}

// New returns an empty board of the given size with Black to move.
func New(size int) *Board {
	if size < 2 {
		panic(fmt.Sprintf("goboard: size %d too small", size))
	}
	b := &Board{
		Size:    size,
		Points:  make([]Color, size*size),
		ToMove:  Black,
		koPoint: -1,
		history: map[uint64]bool{},
	}
	b.history[0] = true
	return b
}

// Clone returns a deep copy (history shared copy-on-write is avoided for
// simplicity; MCTS clones boards frequently but they are tiny).
func (b *Board) Clone() *Board {
	c := &Board{
		Size:      b.Size,
		Points:    append([]Color(nil), b.Points...),
		ToMove:    b.ToMove,
		Passes:    b.Passes,
		MoveCount: b.MoveCount,
		koPoint:   b.koPoint,
		zobrist:   b.zobrist,
		history:   make(map[uint64]bool, len(b.history)),
	}
	for k := range b.history {
		c.history[k] = true
	}
	return c
}

// idx converts (row, col) to a point index.
func (b *Board) idx(r, c int) int { return r*b.Size + c }

// neighbors appends the orthogonal neighbors of p to buf.
func (b *Board) neighbors(p int, buf []int) []int {
	r, c := p/b.Size, p%b.Size
	if r > 0 {
		buf = append(buf, p-b.Size)
	}
	if r < b.Size-1 {
		buf = append(buf, p+b.Size)
	}
	if c > 0 {
		buf = append(buf, p-1)
	}
	if c < b.Size-1 {
		buf = append(buf, p+1)
	}
	return buf
}

// group flood-fills the chain containing p, returning its stones and
// whether it has at least one liberty (early exit available via libLimit).
func (b *Board) group(p int) (stones []int, liberties int) {
	color := b.Points[p]
	seen := make(map[int]bool)
	libSeen := make(map[int]bool)
	stack := []int{p}
	seen[p] = true
	var nbuf [4]int
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		stones = append(stones, cur)
		for _, n := range b.neighbors(cur, nbuf[:0]) {
			switch b.Points[n] {
			case Empty:
				if !libSeen[n] {
					libSeen[n] = true
					liberties++
				}
			case color:
				if !seen[n] {
					seen[n] = true
					stack = append(stack, n)
				}
			}
		}
	}
	return stones, liberties
}

// Legal reports whether move is legal for the side to move. Pass is always
// legal. Stone placements must be on an empty point, must not violate
// simple ko or positional superko, and must not be suicide.
func (b *Board) Legal(move int) bool {
	if move == b.Pass() {
		return true
	}
	if move < 0 || move > b.Pass() || b.Points[move] != Empty {
		return false
	}
	if move == b.koPoint {
		return false
	}
	// Trial play on a scratch copy for superko + suicide detection.
	trial := b.cloneShallow()
	captured := trial.place(move)
	_, libs := trial.group(move)
	if libs == 0 && captured == 0 {
		return false // suicide
	}
	return !b.history[trial.zobrist]
}

// cloneShallow copies the board state without the history map (used for
// trial moves inside Legal).
func (b *Board) cloneShallow() *Board {
	return &Board{
		Size:    b.Size,
		Points:  append([]Color(nil), b.Points...),
		ToMove:  b.ToMove,
		koPoint: -1,
		zobrist: b.zobrist,
	}
}

// place puts a stone for ToMove at move, removes captured opponent chains,
// and returns the number of captured stones. It updates the Zobrist hash
// but not history/turn bookkeeping (Play does that).
func (b *Board) place(move int) int {
	keys := keysFor(b.Size)
	me := b.ToMove
	opp := me.Opponent()
	b.Points[move] = me
	b.zobrist ^= keys[move][me-1]
	captured := 0
	var nbuf [4]int
	for _, n := range b.neighbors(move, nbuf[:0]) {
		if b.Points[n] != opp {
			continue
		}
		stones, libs := b.group(n)
		if libs == 0 {
			for _, s := range stones {
				b.Points[s] = Empty
				b.zobrist ^= keys[s][opp-1]
				captured++
			}
		}
	}
	return captured
}

// Play applies a legal move (stone or pass) and advances the turn.
// It returns an error for illegal moves.
func (b *Board) Play(move int) error {
	if !b.Legal(move) {
		return fmt.Errorf("goboard: illegal move %d for %s", move, b.ToMove)
	}
	if move == b.Pass() {
		b.Passes++
		b.koPoint = -1
	} else {
		b.Passes = 0
		before := append([]Color(nil), b.Points...)
		captured := b.place(move)
		// Simple ko: exactly one stone captured and the new stone's
		// chain is a single stone with one liberty.
		b.koPoint = -1
		if captured == 1 {
			stones, libs := b.group(move)
			if len(stones) == 1 && libs == 1 {
				for p, c := range before {
					if c == b.ToMove.Opponent() && b.Points[p] == Empty {
						b.koPoint = p
						break
					}
				}
			}
		}
		b.history[b.zobrist] = true
	}
	b.ToMove = b.ToMove.Opponent()
	b.MoveCount++
	return nil
}

// GameOver reports whether two consecutive passes have ended the game.
func (b *Board) GameOver() bool { return b.Passes >= 2 }

// LegalMoves returns all legal moves for the side to move (including pass).
func (b *Board) LegalMoves() []int {
	var out []int
	for m := 0; m <= b.Pass(); m++ {
		if b.Legal(m) {
			out = append(out, m)
		}
	}
	return out
}

// Score returns Tromp-Taylor area score from Black's perspective minus the
// komi: stones on the board plus empty regions bordered only by one color.
func (b *Board) Score(komi float64) float64 {
	black, white := 0, 0
	seen := make([]bool, len(b.Points))
	var nbuf [4]int
	for p, c := range b.Points {
		switch c {
		case Black:
			black++
		case White:
			white++
		case Empty:
			if seen[p] {
				continue
			}
			// Flood-fill the empty region and find bordering colors.
			region := []int{p}
			seen[p] = true
			stack := []int{p}
			touchBlack, touchWhite := false, false
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, n := range b.neighbors(cur, nbuf[:0]) {
					switch b.Points[n] {
					case Black:
						touchBlack = true
					case White:
						touchWhite = true
					case Empty:
						if !seen[n] {
							seen[n] = true
							region = append(region, n)
							stack = append(stack, n)
						}
					}
				}
			}
			if touchBlack && !touchWhite {
				black += len(region)
			} else if touchWhite && !touchBlack {
				white += len(region)
			}
		}
	}
	return float64(black) - float64(white) - komi
}

// Winner returns the winning color under the given komi (Empty for a tie,
// which cannot happen with fractional komi).
func (b *Board) Winner(komi float64) Color {
	s := b.Score(komi)
	switch {
	case s > 0:
		return Black
	case s < 0:
		return White
	}
	return Empty
}

// Features encodes the position as 3 planes of size×size for the neural
// network: side-to-move stones, opponent stones, and a constant
// side-to-move indicator plane (1 when Black to move).
func (b *Board) Features() []float64 {
	n := b.Size * b.Size
	out := make([]float64, 3*n)
	me := b.ToMove
	for p, c := range b.Points {
		switch c {
		case me:
			out[p] = 1
		case me.Opponent():
			out[n+p] = 1
		}
	}
	if me == Black {
		for p := 0; p < n; p++ {
			out[2*n+p] = 1
		}
	}
	return out
}

// String renders the board as ASCII rows.
func (b *Board) String() string {
	s := ""
	for r := 0; r < b.Size; r++ {
		for c := 0; c < b.Size; c++ {
			s += b.Points[b.idx(r, c)].String()
		}
		s += "\n"
	}
	return s
}

// CapturesIfPlayed returns how many opponent stones the side to move would
// capture by playing move, without mutating the board. Returns 0 for
// illegal moves and pass.
func (b *Board) CapturesIfPlayed(move int) int {
	if move < 0 || move >= b.Pass() || b.Points[move] != Empty {
		return 0
	}
	trial := b.cloneShallow()
	return trial.place(move)
}

// SelfAtariIfPlayed reports whether playing move leaves the new chain with
// exactly one liberty (a usually-bad move the oracle avoids).
func (b *Board) SelfAtariIfPlayed(move int) bool {
	if move < 0 || move >= b.Pass() || b.Points[move] != Empty {
		return false
	}
	trial := b.cloneShallow()
	trial.place(move)
	_, libs := trial.group(move)
	return libs == 1
}

// SavesAtariIfPlayed reports whether the side to move has a neighboring
// chain in atari (one liberty) that gains liberties when move is played.
func (b *Board) SavesAtariIfPlayed(move int) bool {
	if move < 0 || move >= b.Pass() || b.Points[move] != Empty {
		return false
	}
	me := b.ToMove
	var nbuf [4]int
	inAtari := false
	for _, n := range b.neighbors(move, nbuf[:0]) {
		if b.Points[n] == me {
			if _, libs := b.group(n); libs == 1 {
				inAtari = true
				break
			}
		}
	}
	if !inAtari {
		return false
	}
	trial := b.cloneShallow()
	trial.place(move)
	_, libs := trial.group(move)
	return libs >= 2
}
