package goboard

import (
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// mustPlay fails the test on an illegal move.
func mustPlay(t *testing.T, b *Board, moves ...int) {
	t.Helper()
	for _, m := range moves {
		if err := b.Play(m); err != nil {
			t.Fatalf("move %d: %v", m, err)
		}
	}
}

func TestSingleStoneCapture(t *testing.T) {
	// White stone at (1,1) on 5x5 surrounded by black.
	b := New(5)
	// B(0,1) W(1,1) B(1,0) W(4,4) B(1,2) W(4,3) B(2,1) captures.
	mustPlay(t, b, 1, 6, 5, 24, 7, 23, 11)
	if b.Points[6] != Empty {
		t.Fatal("surrounded white stone should be captured")
	}
}

func TestGroupCapture(t *testing.T) {
	b := New(5)
	// Two white stones at (0,0),(0,1); black surrounds: (1,0),(1,1),(0,2).
	mustPlay(t, b, 10 /*B(2,0)*/, 0 /*W(0,0)*/, 5 /*B(1,0)*/, 1 /*W(0,1)*/, 6 /*B(1,1)*/, 24 /*W*/, 2 /*B(0,2) captures*/)
	if b.Points[0] != Empty || b.Points[1] != Empty {
		t.Fatal("white group should be captured")
	}
}

func TestSuicideIllegal(t *testing.T) {
	b := New(3)
	// Black builds the cross (0,1),(1,0),(1,2),(2,1); white passes (the
	// corners would be suicide for white once the cross forms).
	mustPlay(t, b, 1, b.Pass(), 3, b.Pass(), 5, b.Pass(), 7)
	// Now White to move; center (1,1)=4 is suicide.
	if b.ToMove != White {
		t.Fatalf("expected white to move, got %v", b.ToMove)
	}
	if b.Legal(4) {
		t.Fatal("suicide must be illegal")
	}
}

func TestKoRule(t *testing.T) {
	b := New(5)
	// Classic ko shape around (1,1)/(1,2):
	// B: (0,1)=1, (1,0)=5, (2,1)=11
	// W: (0,2)=2, (1,3)=8, (2,2)=12
	mustPlay(t, b, 1, 2, 5, 8, 11, 12)
	// B plays (1,2)=7; W captures it with (1,1)=6.
	mustPlay(t, b, 7, 6)
	// Hold on: W(1,1) captured B(1,2)? B(1,2) neighbors: (0,2)W,(1,3)W,(2,2)W,(1,1)W → captured.
	if b.Points[7] != Empty {
		t.Fatal("ko: black stone should have been captured")
	}
	// Black may not immediately recapture at (1,2).
	if b.Legal(7) {
		t.Fatal("immediate ko recapture must be illegal")
	}
	// After a ko threat elsewhere, the recapture becomes legal.
	mustPlay(t, b, 24)
	mustPlay(t, b, 20)
	if !b.Legal(7) {
		t.Fatal("ko recapture should be legal after intervening moves")
	}
}

func TestPassesEndGame(t *testing.T) {
	b := New(5)
	mustPlay(t, b, b.Pass())
	if b.GameOver() {
		t.Fatal("one pass does not end the game")
	}
	mustPlay(t, b, b.Pass())
	if !b.GameOver() {
		t.Fatal("two passes end the game")
	}
}

func TestScoringEmptyBoard(t *testing.T) {
	b := New(5)
	if got := b.Score(6.5); got != -6.5 {
		t.Fatalf("empty board scores -komi for black: %v", got)
	}
}

func TestScoringTerritory(t *testing.T) {
	b := New(3)
	// Black wall on column 1: (0,1),(1,1),(2,1); white stone at (0,2).
	mustPlay(t, b, 1, 2, 4, b.Pass(), 7)
	// Column 0 empties border only black (3 points); col 2 has W at (0,2)
	// and empties (1,2),(2,2) border both colors → neutral.
	// Black: 3 stones + 3 territory = 6; White: 1 stone.
	want := 6.0 - 1.0 - 6.5
	if got := b.Score(6.5); got != want {
		t.Fatalf("score = %v want %v\n%s", got, want, b)
	}
}

func TestWinner(t *testing.T) {
	b := New(3)
	mustPlay(t, b, 4, b.Pass(), b.Pass())
	if b.Winner(0.5) != Black {
		t.Fatal("black owns the whole board")
	}
}

func TestFeaturesPerspective(t *testing.T) {
	b := New(3)
	mustPlay(t, b, 0) // black at 0, white to move
	f := b.Features()
	n := 9
	if f[0] != 0 || f[n] != 1 {
		t.Fatal("features must be side-to-move relative: black stone is in the opponent plane for white")
	}
	if f[2*n] != 0 {
		t.Fatal("turn plane should be 0 for white to move")
	}
}

func TestCloneIndependence(t *testing.T) {
	b := New(5)
	mustPlay(t, b, 12)
	c := b.Clone()
	mustPlay(t, c, 13)
	if b.Points[13] != Empty {
		t.Fatal("clone must not alias the original")
	}
	if b.MoveCount == c.MoveCount {
		t.Fatal("clone move counts should diverge")
	}
}

func TestCapturesIfPlayed(t *testing.T) {
	b := New(5)
	mustPlay(t, b, 1, 6, 5, 24, 7)
	// Black to play 11 captures white at 6.
	if b.ToMove != White {
		t.Fatal("setup: white to move")
	}
	mustPlay(t, b, 23) // white elsewhere
	if got := b.CapturesIfPlayed(11); got != 1 {
		t.Fatalf("CapturesIfPlayed = %d want 1", got)
	}
	// And the board is unchanged.
	if b.Points[6] != White {
		t.Fatal("CapturesIfPlayed must not mutate")
	}
}

func TestSelfAtariIfPlayed(t *testing.T) {
	b := New(3)
	// White stones at (0,1) and (1,0); black playing corner (0,0) is self-atari... actually
	// corner with both neighbors white = suicide. Use a 1-liberty shape:
	// W at (0,1); black (0,0) has single liberty (1,0) → self-atari.
	mustPlay(t, b, 8, 1)
	if !b.SelfAtariIfPlayed(0) {
		t.Fatal("corner under the white stone is self-atari for black")
	}
}

// Property: playing any legal move keeps the board consistent — no chain
// with zero liberties survives.
func TestNoZeroLibertyChainsProperty(t *testing.T) {
	rng := tensor.NewRNG(5)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		b := New(5)
		for i := 0; i < 40 && !b.GameOver(); i++ {
			legal := b.LegalMoves()
			m := legal[r.Intn(len(legal))]
			if err := b.Play(m); err != nil {
				return false
			}
			for p, c := range b.Points {
				if c == Empty {
					continue
				}
				if _, libs := b.group(p); libs == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: area scoring conserves the board: black + white + neutral
// territory sums to at most size².
func TestScoreBoundedProperty(t *testing.T) {
	rng := tensor.NewRNG(9)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		b := New(5)
		for i := 0; i < 30 && !b.GameOver(); i++ {
			legal := b.LegalMoves()
			if err := b.Play(legal[r.Intn(len(legal))]); err != nil {
				return false
			}
		}
		s := b.Score(0)
		n := float64(b.Size * b.Size)
		return s >= -n && s <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPassAlwaysLegal(t *testing.T) {
	b := New(4)
	for i := 0; i < 6; i++ {
		if !b.Legal(b.Pass()) {
			t.Fatal("pass must always be legal")
		}
		legal := b.LegalMoves()
		mustPlay(t, b, legal[0])
	}
}

func TestNewPanicsOnTinyBoard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1)
}
