package core

import (
	"fmt"

	"repro/internal/models"
	"repro/internal/precision"
)

// NumericsTag renders a regime for logs and model strings: the compute
// dtype, suffixed with "+mp" when the mixed-precision recipe (master
// weight rounds + dynamic loss scaling) is layered on top.
func NumericsTag(num precision.Numerics) string {
	tag := num.Compute.String()
	if num.Mixed {
		tag += "+mp"
	}
	return tag
}

// numericsBenchmark is Configure's serial reduced-numerics path: a copy of
// the suite benchmark whose New constructor trains under the given regime
// (§2.2.3) instead of the float64 reference. The workloads implement
// models.Workload, so Run/RunSet apply the §3.2.1 timing rules exactly as
// for reference runs — which is what makes the StatCheck comparison
// well-posed: the two sides differ only in the compute regime. Evaluation
// always runs in float64, so quality is measured identically on both sides.
func numericsBenchmark(v Version, id string, num precision.Numerics) (Benchmark, error) {
	b, err := FindBenchmark(v, id)
	if err != nil {
		return Benchmark{}, err
	}
	switch id {
	case "recommendation":
		ds := recDSOnce()
		b.New = func(seed uint64) models.Workload {
			hp := models.DefaultNCFHParams()
			hp.Numerics = num
			return models.NewRecommendation(ds, hp, seed)
		}
	case "image_classification":
		ds := imgDSOnce()
		b.New = func(seed uint64) models.Workload {
			hp := imageHParams(v)
			hp.Numerics = num
			return models.NewImageClassification(ds, hp, seed)
		}
	default:
		return Benchmark{}, fmt.Errorf("core: benchmark %q does not support numerics regimes (supported: image_classification, recommendation)", id)
	}
	b.Model += fmt.Sprintf(" [numerics %s]", NumericsTag(num))
	return b, nil
}
