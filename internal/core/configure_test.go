package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mlog"
	"repro/internal/precision"
	"repro/internal/tensor"
)

// Every bad topology is refused by Configure itself, on the clean error
// path and for its stated reason: the engine's rules are
// pipeline.Config.Resolved's (errors wrapped "core: pipeline: ..."), the
// benchmark table's are core's, and nothing is left to panic inside
// Benchmark.New.
func TestConfigureValidation(t *testing.T) {
	mixed := precision.Numerics{Compute: tensor.BFloat16}
	for _, tc := range []struct {
		name string
		id   string
		cfg  TrainConfig
		want string // substring of the error
	}{
		{"unknown benchmark", "nope", TrainConfig{Parallel: Parallel{DP: 2}}, `unknown benchmark "nope"`},
		{"unknown benchmark, pipelined", "nope", TrainConfig{Parallel: Parallel{PPStages: 2}}, `unknown benchmark "nope"`},
		{"no engine for the benchmark", "reinforcement_learning", TrainConfig{Parallel: Parallel{DP: 2}}, "does not support engine training"},
		{"no partitioner", "recommendation", TrainConfig{Parallel: Parallel{PPStages: 2}}, "no pipeline partitioner"},
		{"no partitioner, recurrent", "translation_gnmt", TrainConfig{Parallel: Parallel{PPStages: 2}}, "no pipeline partitioner"},
		// DP: 0 alone is serial training; with a grain it names an engine
		// run of zero workers.
		{"grain without workers", "recommendation", TrainConfig{Parallel: Parallel{Microbatches: 8}}, "pipeline: Workers 0 < 1"},
		{"negative workers", "recommendation", TrainConfig{Parallel: Parallel{DP: -1}}, "pipeline: Workers -1 < 1"},
		{"negative workers, pipelined", "image_classification", TrainConfig{Parallel: Parallel{PPStages: 2, DP: -1}}, "pipeline: Workers -1 < 1"},
		{"negative stages", "image_classification", TrainConfig{Parallel: Parallel{PPStages: -1, DP: 1}}, "pipeline: Stages -1 < 1"},
		{"negative grain", "recommendation", TrainConfig{Parallel: Parallel{DP: 2, Microbatches: -2}}, "pipeline: Microbatches -2 < 0"},
		{"grain not a multiple of DP", "recommendation", TrainConfig{Parallel: Parallel{DP: 4, Microbatches: 6}}, "pipeline: Microbatches 6 must be a positive multiple of Workers 4"},
		{"grain not a multiple of DP, pipelined", "image_classification", TrainConfig{Parallel: Parallel{PPStages: 2, DP: 2, Microbatches: 3}}, "pipeline: Microbatches 3 must be a positive multiple of Workers 2"},
		{"unknown schedule", "image_classification", TrainConfig{Parallel: Parallel{PPStages: 2, PPSchedule: "zigzag"}}, `pipeline: unknown schedule "zigzag"`},
		{"mixed precision across stages", "image_classification", TrainConfig{Parallel: Parallel{PPStages: 2}, Numerics: mixed}, "pipeline: mixed-precision numerics need Stages == 1, got 2: the overflow skip is one decision over the whole model's gradient"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Configure(V05, tc.id, tc.cfg)
			if err == nil {
				t.Fatalf("Configure accepted %+v", tc.cfg.Parallel)
			}
			if !strings.HasPrefix(err.Error(), "core: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q: want a core: error containing %q", err, tc.want)
			}
		})
	}
}

// Mixed precision needs one stage, not zero pipeline flags: PPStages 1 is
// the data-parallel column spelled as a pipeline, and it configures and
// trains. (cmd/mlperf used to refuse it with a rule of its own.)
func TestConfigureMixedAtOneStageTrains(t *testing.T) {
	b, err := Configure(V05, "recommendation", TrainConfig{
		Parallel: Parallel{PPStages: 1},
		Numerics: precision.Numerics{Compute: tensor.BFloat16},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := Run(b, RunConfig{Seed: 1, MaxEpochs: 1, Clock: clock.NewTick(time.Millisecond)})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Epochs != 1 || r.FinalQuality <= 0 || r.FinalQuality > 1 {
		t.Fatalf("epochs = %d, HR@10 = %v", r.Epochs, r.FinalQuality)
	}
}

// A regime is its dtype: -dtype f64, f32 and bf16 log numerics_dtype as
// f64, f32 and bf16+mp, and name the reduced regimes in the model string.
func TestConfigureNumericsTagAndModel(t *testing.T) {
	suite, err := FindBenchmark(V05, "recommendation")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		dtype    tensor.DType
		parallel Parallel
		tag      string
		model    string
	}{
		{tensor.Float64, Parallel{}, "f64", suite.Model},
		{tensor.Float32, Parallel{}, "f32", suite.Model + " [numerics f32]"},
		{tensor.BFloat16, Parallel{}, "bf16+mp", suite.Model + " [numerics bf16+mp]"},
		{tensor.BFloat16, Parallel{DP: 2}, "bf16+mp", suite.Model + " [data-parallel ×2] [numerics bf16+mp]"},
	} {
		b, err := Configure(V05, "recommendation", TrainConfig{Parallel: tc.parallel, Numerics: precision.Numerics{Compute: tc.dtype}})
		if err != nil {
			t.Fatal(err)
		}
		if b.Model != tc.model {
			t.Errorf("%v %+v: model %q, want %q", tc.dtype, tc.parallel, b.Model, tc.model)
		}
		r := Run(b, RunConfig{Seed: 1, MaxEpochs: 1, Clock: clock.NewTick(time.Millisecond)})
		if ev := mlog.Find(r.Log.Events, mlog.KeyNumerics); r.Err != nil || ev == nil || ev.Value != tc.tag {
			t.Errorf("%v %+v: run error %v, %s event %+v, want %q", tc.dtype, tc.parallel, r.Err, mlog.KeyNumerics, ev, tc.tag)
		}
	}
}
