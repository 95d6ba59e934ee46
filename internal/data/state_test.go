package data

import (
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// TestLoaderStateRoundTrip captures mid-epoch, restores into a fresh
// loader, and checks the batch sequence — across the next reshuffle
// boundary — is bit-identical to the capturing loader's.
func TestLoaderStateRoundTrip(t *testing.T) {
	ref := NewLoader(23, 5, tensor.NewRNG(9))
	for i := 0; i < 7; i++ { // land mid-epoch
		ref.Next()
	}
	st := ref.State()

	res := NewLoader(23, 5, tensor.NewRNG(1234)) // deliberately different seed
	if err := res.SetState(st); err != nil {
		t.Fatalf("SetState: %v", err)
	}
	if res.epoch != ref.epoch {
		t.Fatalf("restored epoch %d != %d", res.epoch, ref.epoch)
	}
	for i := 0; i < 15; i++ { // crosses at least two reshuffles
		a, ae := ref.Next()
		b, be := res.Next()
		if !reflect.DeepEqual(a, b) || ae != be {
			t.Fatalf("batch %d diverged: %v(%v) vs %v(%v)", i, a, ae, b, be)
		}
	}
}

// TestLoaderStateValidation checks structural mismatches are rejected.
func TestLoaderStateValidation(t *testing.T) {
	l := NewLoader(10, 3, tensor.NewRNG(1))
	st := l.State()

	wrongN := st
	wrongN.Order = st.Order[:5]
	if err := l.SetState(wrongN); err == nil {
		t.Error("accepted state with wrong order length")
	}
	badPos := st
	badPos.Pos = 11
	if err := l.SetState(badPos); err == nil {
		t.Error("accepted out-of-range position")
	}
	if err := l.SetState(st); err != nil {
		t.Errorf("rejected valid state: %v", err)
	}
}
