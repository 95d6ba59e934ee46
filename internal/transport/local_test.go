package transport

import (
	"errors"
	"math"
	"testing"
)

// bitPatterns is a payload that only survives a transport preserving exact
// float64 bits: quiet/patterned NaNs, signed zeros, infinities, denormals.
var bitPatterns = []uint64{
	0x7ff8000000000001, // quiet NaN with payload
	0x7ff0000000000001, // signalling-style NaN
	0xfff800000000dead, // negative NaN with payload
	0x8000000000000000, // -0.0
	0x0000000000000001, // smallest denormal
	0x7fefffffffffffff, // largest finite
	0x7ff0000000000000, // +Inf
	0xfff0000000000000, // -Inf
	0x3ff0000000000000, // 1.0
}

func patternFloats() []float64 {
	out := make([]float64, len(bitPatterns))
	for i, b := range bitPatterns {
		out[i] = math.Float64frombits(b)
	}
	return out
}

func requireBits(t *testing.T, got []float64) {
	t.Helper()
	if len(got) != len(bitPatterns) {
		t.Fatalf("got %d floats, want %d", len(got), len(bitPatterns))
	}
	for i, v := range got {
		if math.Float64bits(v) != bitPatterns[i] {
			t.Fatalf("element %d: bits %016x, want %016x", i, math.Float64bits(v), bitPatterns[i])
		}
	}
}

func TestEndpointValidate(t *testing.T) {
	fab := NewLocalFabric(2, nil)
	defer fab.Endpoint(0).Close()
	for _, tc := range []struct {
		name string
		ep   Endpoint
		ok   bool
	}{
		{"defaults", Endpoint{Workers: 1}, true},
		{"no workers", Endpoint{}, false},
		{"rank without mesh", Endpoint{Workers: 1, Rank: 1}, false},
		{"shard", Endpoint{Workers: 2, Mesh: fab.Endpoint(1), Rank: 1}, true},
		{"shard rank high", Endpoint{Workers: 2, Mesh: fab.Endpoint(1), Rank: 2}, false},
		{"shard rank negative", Endpoint{Workers: 2, Mesh: fab.Endpoint(1), Rank: -1}, false},
	} {
		if err := tc.ep.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestSubMeshView(t *testing.T) {
	fab := NewLocalFabric(4, nil)
	// Sub-group {1, 3}: view rank 0 is global 1, view rank 1 is global 3.
	v1 := Sub(fab.Endpoint(1), []int{1, 3})
	v3 := Sub(fab.Endpoint(3), []int{1, 3})
	if v1.Rank() != 0 || v3.Rank() != 1 || v1.World() != 2 {
		t.Fatalf("sub view ranks/world = %d/%d/%d; want 0/1/2", v1.Rank(), v3.Rank(), v1.World())
	}
	if err := v1.Send(1, 5, patternFloats()); err != nil {
		t.Fatal(err)
	}
	got, err := v3.Recv(0, 5, make([]float64, len(bitPatterns)))
	if err != nil {
		t.Fatal(err)
	}
	requireBits(t, got)

	// The view of every rank in order is the endpoint itself: the gated DP
	// step's ring (S = 1) makes the calls it made before rings were views.
	if whole := Sub(fab.Endpoint(2), []int{0, 1, 2, 3}); whole != fab.Endpoint(2) {
		t.Fatalf("Sub over the identity member list returned %T, want the parent endpoint", whole)
	}
	if perm := Sub(fab.Endpoint(2), []int{1, 0, 2, 3}); perm == fab.Endpoint(2) {
		t.Fatal("Sub over a permutation returned the parent endpoint")
	}

	// Fail through the view translates to the global rank.
	v1.Fail(1, errors.New("down"))
	if _, err := fab.Endpoint(0).Recv(3, 1, nil); err == nil {
		t.Fatal("global rank 3 should be down after view Fail(1)")
	}
	for r := 0; r < 4; r++ {
		fab.Endpoint(r).Close()
	}
}

func TestSubMeshRejectsNonMembers(t *testing.T) {
	fab := NewLocalFabric(2, nil)
	defer fab.Endpoint(0).Close()
	defer fab.Endpoint(1).Close()
	for _, members := range [][]int{{1}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Sub(%v) from rank 0 did not panic", members)
				}
			}()
			Sub(fab.Endpoint(0), members)
		}()
	}
}
