package repro

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/transport"
)

// evalBenchIDs are the engine benchmarks, whose quality metric is their
// Evaluate on worker 0's replica.
var evalBenchIDs = []string{
	"image_classification",
	"object_detection_ssd",
	"instance_segmentation_maskrcnn",
	"translation_gnmt",
	"translation_transformer",
	"recommendation",
}

// BenchmarkEval times one warm evaluation of each engine benchmark: the
// serial engine at seed 1, trained two epochs (so the detectors propose
// boxes and the decoders stop at EOS as they do mid-run), evaluated once
// cold, then timed. Evaluation is inside time-to-train (§3.2.1). Every
// model evaluates on storage it keeps across calls, so the rows for
// recommendation and image_classification must read 0 allocs/op (CI's
// bench-smoke gate); what the others still allocate is the metric's own
// work (BENCH_eval.json, floor).
func BenchmarkEval(b *testing.B) {
	for _, id := range evalBenchIDs {
		b.Run(id, func(b *testing.B) {
			withPoolWorkers(b, 1)
			eng, eval, err := core.NewEngine(core.V05, id, pipeline.Config{
				Endpoint: transport.Endpoint{Workers: 1},
				Stages:   1, Microbatches: 1, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(eng.Close)
			for e := 0; e < 2; e++ {
				eng.TrainEpoch()
			}
			eval()
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eval()
			}
		})
	}
}
