package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/clock"
)

// goldenEvalStream is the bit pattern of every eval_accuracy value a
// seed-1 serial run of each engine benchmark logs, recorded before
// evaluation moved onto reused tapes and eval lists built once. Evaluate's
// storage may change; the numbers it scores may not. Each run is two
// epochs, except the translators': they score BLEU 0 until epochs 3 and 5,
// and a pin of 0 would pass a decoder that emits nothing.
var goldenEvalStream = map[string]struct {
	epochs int
	bits   []uint64
}{
	"image_classification":           {2, []uint64{0x3fc0cccccccccccd, 0x3fc0000000000000}},
	"object_detection_ssd":           {2, []uint64{0x3f59a3f953e4b305, 0x3f6b82b2f654200f}},
	"instance_segmentation_maskrcnn": {2, []uint64{0x0, 0x3f928f5fc563291b}},
	"translation_gnmt":               {5, []uint64{0x0, 0x0, 0x0, 0x0, 0x4021fe5115eeaf54}},
	"translation_transformer":        {3, []uint64{0x0, 0x0, 0x40104131a7d86ecd}},
	"recommendation":                 {2, []uint64{0x3fdb8e38e38e38e4, 0x3fdc71c71c71c71c}},
}

// TestGoldenEvalStream runs every engine benchmark at seed 1 and compares
// each evaluation's quality with the recorded bits. Every evaluation after
// the first is a warm call, so it checks that reused eval state scores
// exactly what a cold call does.
func TestGoldenEvalStream(t *testing.T) {
	if testing.Short() {
		t.Skip("two to five epochs of six benchmarks")
	}
	for id, pin := range goldenEvalStream {
		t.Run(id, func(t *testing.T) {
			b, err := FindBenchmark(V05, id)
			if err != nil {
				t.Fatal(err)
			}
			r := Run(b, RunConfig{Seed: 1, MaxEpochs: pin.epochs, Clock: clock.NewTick(time.Millisecond)})
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			got := make([]uint64, len(r.QualityCurve))
			for i, q := range r.QualityCurve {
				got[i] = math.Float64bits(q)
			}
			if len(got) != len(pin.bits) {
				t.Fatalf("%d evaluations %#x, want %#x", len(got), got, pin.bits)
			}
			for i := range got {
				if got[i] != pin.bits[i] {
					t.Errorf("eval %d: quality %v (%#x), want %v (%#x)",
						i, r.QualityCurve[i], got[i], math.Float64frombits(pin.bits[i]), pin.bits[i])
				}
			}
		})
	}
}
