package datasets

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/tensor"
)

// digest folds float and int values into one FNV-1a sum, in the order given.
type digest struct{ b []byte }

func (d *digest) floats(v []float64) {
	for _, x := range v {
		d.b = binary.LittleEndian.AppendUint64(d.b, math.Float64bits(x))
	}
}

func (d *digest) ints(v ...int) {
	for _, x := range v {
		d.b = binary.LittleEndian.AppendUint64(d.b, uint64(x))
	}
}

func (d *digest) box(b Box) {
	d.floats([]float64{b.X1, b.Y1, b.X2, b.Y2})
	d.ints(b.Class)
}

func (d *digest) sum() uint64 {
	h := fnv.New64a()
	h.Write(d.b)
	return h.Sum64()
}

// The default generators' output, pinned by digest: the image and
// detection sets are written element by element through Tensor.At and
// Set, so any change to how those index must leave every value where it
// was.
func TestGeneratorDigests(t *testing.T) {
	var img digest
	ids := GenerateImages(DefaultImageConfig())
	for _, x := range []*tensor.Tensor{ids.Train, ids.Val, ids.prototypes} {
		img.ints(x.Shape...)
		img.floats(x.Data)
	}
	img.ints(ids.TrainLabels...)
	img.ints(ids.ValLabels...)

	var det digest
	dds := GenerateDetection(DefaultDetConfig())
	for _, split := range [][]DetExample{dds.Train, dds.Val} {
		det.ints(len(split))
		for _, ex := range split {
			det.floats(ex.Image.Data)
			det.ints(len(ex.Boxes))
			for i, b := range ex.Boxes {
				det.box(b)
				det.floats(ex.Masks[i].Data)
			}
		}
	}

	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"GenerateImages", img.sum(), 0xcaf9fa13908ef0dd},
		{"GenerateDetection", det.sum(), 0x1dede7321f7b1683},
	} {
		if c.got != c.want {
			t.Errorf("%s digest %#x, want %#x", c.name, c.got, c.want)
		}
	}
}
