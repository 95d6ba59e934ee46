package grid

// Absolute pin of the default ResNet's training bits.
//
// Every other identity test in the repo is relative (serial vs DP vs PP,
// run vs resume), so a kernel change that moved every path's bits the same
// way would pass them all. This one compares three steps at seed 1 to
// constants recorded on commit 4dd6c76, before the convolution kernels
// took their row form; any reordering of a floating-point sum inside a
// step changes them.
//
// To regenerate after a change that is MEANT to move training bits: run
//
//	go test -run TestGoldenResNetThreeSteps -v ./internal/grid
//
// and copy the "got" digest and loss bit patterns from the failure
// message into the constants below, in the same commit as the change.

import (
	"math"
	"sort"
	"testing"

	"repro/internal/autograd"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/precision"
	"repro/internal/seal"
	"repro/internal/tensor"
	"repro/internal/transport"
)

const (
	goldenResNetSteps  = 3
	goldenResNetDigest = "902fd4632a200f72"
)

// goldenResNetLosses are the step losses as float64 bit patterns.
var goldenResNetLosses = [goldenResNetSteps]uint64{
	0x4003f7ff8114d18e, 0x4003cf3b14a8afc2, 0x40016fedec8967b6,
}

func TestGoldenResNetThreeSteps(t *testing.T) {
	// The same two microshards on every row: the microshard count fixes
	// the gradient's reduction order, the worker and stage counts do not.
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"serial", Spec{Benchmark: "image_classification", DP: 1, Microshards: 2, Seed: 1}},
		{"dp2", Spec{Benchmark: "image_classification", DP: 2, Microshards: 2, Seed: 1}},
		{"pp2", Spec{Benchmark: "image_classification", PP: 2, Microbatches: 2, Seed: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := Build(tc.spec, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			var losses [goldenResNetSteps]uint64
			for i := range losses {
				losses[i] = math.Float64bits(eng.StepNext())
				if err := eng.Err(); err != nil {
					t.Fatal(err)
				}
			}
			dig := NewDigest()
			dig.Add(eng.Params())
			if got := dig.Sum(); got != goldenResNetDigest || losses != goldenResNetLosses {
				t.Fatalf("training bits moved:\n got digest %q losses %#x\nwant digest %q losses %#x",
					got, losses, goldenResNetDigest, goldenResNetLosses)
			}
		})
	}
}

// The same pin for the default Transformer, recorded on commit c0ca2cd,
// before attention became one tape node and the pipeline cut moved to
// sublayer boundaries. The parameter digest folds the parameters in NAME
// order, so it does not depend on where the pipeline cut puts them.
const (
	goldenTransformerSteps  = 3
	goldenTransformerDigest = "72204761a4ef0930"
)

// goldenTransformerLosses are the step losses as float64 bit patterns.
var goldenTransformerLosses = [goldenTransformerSteps]uint64{
	0x400b1b8351a04b11, 0x400b7eb205182a9d, 0x400b75ff09d7fa60,
}

// digestByName folds every parameter's bits into one hash, in name order.
func digestByName(params []*autograd.Param) string {
	ps := append([]*autograd.Param(nil), params...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	h := seal.New()
	for _, p := range ps {
		h = h.Str(p.Name).Float64s(p.Value.Data)
	}
	return h.Hex()
}

func TestGoldenTransformerThreeSteps(t *testing.T) {
	serial := func() (Engine, error) {
		return Build(Spec{Benchmark: "translation_transformer", PP: 1, Microbatches: 4, Seed: 1}, nil, 0)
	}
	pp2 := func() (Engine, error) {
		return Build(Spec{Benchmark: "translation_transformer", PP: 2, Microbatches: 4, Schedule: "1f1b", Seed: 1}, nil, 0)
	}
	for _, tc := range []struct {
		name  string
		build func() (Engine, error)
	}{
		{"serial", serial},
		{"pp2_1f1b", pp2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			var losses [goldenTransformerSteps]uint64
			for i := range losses {
				losses[i] = math.Float64bits(eng.StepNext())
				if err := eng.Err(); err != nil {
					t.Fatal(err)
				}
			}
			if got := digestByName(eng.Params()); got != goldenTransformerDigest || losses != goldenTransformerLosses {
				t.Fatalf("training bits moved:\n got digest %q losses %#x\nwant digest %q losses %#x",
					got, losses, goldenTransformerDigest, goldenTransformerLosses)
			}
		})
	}
}

// The reduced-precision regimes, pinned the same way: three NCF DP-2 steps
// (the repo benchmark's ncf_dp2 spec: batch 64 over 8 microshards of 40
// rows) under -dtype f32 and -dtype bf16, recorded on commit 2386418, the
// last one with a separate float32 GEMM engine that always packed. Its
// 40×16×{16,8} products moved to the pack-free arm when the two engines
// became one; these pins are what "the f32 bits did not move" rests on.
const goldenNCFReducedSteps = 3

// Three-step digests (Digest over Params(), engine order) of the rows
// TestGoldenConfigureAndBuildAgree runs that no pin above covers, recorded
// on commit 5670091, the last one with two builders (both gave these).
const (
	goldenNCFDP2Digest         = "0762b051cdddfff1"
	goldenResNetV06Digest      = "547cef398745b326"
	goldenTransformerPP2Digest = "a2dae6a78e825b0a"
)

// The serial rows: three steps of the K = S = M = 1 engine at seed 1, built
// by grid.Build (and, for f32, by core.NewEngine) on commit 50ffa47, whose
// core.Configure still trained a serial run in a loop of its own.
const (
	goldenNCFSerialDigest         = "2fff34bfcbef0a1f"
	goldenResNetSerialDigest      = "cfff1c73ea55d705"
	goldenResNetF32SerialDigest   = "b17690334cdfe0cc"
	goldenTransformerSerialDigest = "5f0a126801a4ef1e"
)

var goldenNCFReduced = []struct {
	dtype  tensor.DType
	digest string
	losses [goldenNCFReducedSteps]uint64
}{
	{tensor.Float32, "4b44fe69a31e324e", [goldenNCFReducedSteps]uint64{
		0x3fe630cebf7925c4, 0x3fe61deb12db1ae0, 0x3fe6049c0b429732}},
	{tensor.BFloat16, "5284e1a5bbbfd6a2", [goldenNCFReducedSteps]uint64{
		0x3fe630c86df73494, 0x3fe61dfdcd98b866, 0x3fe6047c1799b174}},
}

func TestGoldenNCFReducedPrecisionThreeSteps(t *testing.T) {
	for _, tc := range goldenNCFReduced {
		t.Run(tc.dtype.String(), func(t *testing.T) {
			eng, _, err := core.NewEngine(core.V05, "recommendation", pipeline.Config{
				Endpoint: transport.Endpoint{Workers: 2},
				Stages:   1, Microbatches: 8, Seed: 1,
				Numerics: precision.Numerics{Compute: tc.dtype},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			var losses [goldenNCFReducedSteps]uint64
			for i := range losses {
				losses[i] = math.Float64bits(eng.StepNext())
				if err := eng.Err(); err != nil {
					t.Fatal(err)
				}
			}
			if got := digestByName(eng.Params()); got != tc.digest || losses != tc.losses {
				t.Fatalf("training bits moved:\n got digest %q losses %#x\nwant digest %q losses %#x",
					got, losses, tc.digest, tc.losses)
			}
		})
	}
}

// One constructor: core.Configure (the harness's road to an engine) and
// Build (the grid's) must train the same run. Three steps at seed 1 through
// each give one digest over Params(), and that digest is pinned, so the
// round-aware hyperparameters (v0.6: LARS and a two-epoch warm-up) cannot
// be dropped on either road or on both. The serial rows are the zero
// TrainConfig, the suite's own row, against the K = S = M = 1 grid; a Spec
// names no regime, so the f32 row's grid side is core.NewEngine, what Build
// calls.
func TestGoldenConfigureAndBuildAgree(t *testing.T) {
	const steps = 3
	serial := func(id string) Spec { return Spec{Benchmark: id, DP: 1, Microbatches: 1} }
	for _, tc := range []struct {
		name   string
		cfg    core.TrainConfig
		spec   Spec
		digest string
	}{
		{"ncf_dp2", core.TrainConfig{Parallel: core.Parallel{DP: 2, Microbatches: 8}},
			Spec{Benchmark: "recommendation", DP: 2, Microbatches: 8}, goldenNCFDP2Digest},
		{"resnet_v05_dp2_pp2", core.TrainConfig{Parallel: core.Parallel{DP: 2, PPStages: 2, Microbatches: 2}},
			Spec{Benchmark: "image_classification", DP: 2, PP: 2, Microbatches: 2}, goldenResNetDigest},
		{"resnet_v06_dp2_pp2", core.TrainConfig{Parallel: core.Parallel{DP: 2, PPStages: 2, Microbatches: 2}},
			Spec{Benchmark: "image_classification", Version: "v0.6", DP: 2, PP: 2, Microbatches: 2}, goldenResNetV06Digest},
		{"transformer_pp2_1f1b", core.TrainConfig{Parallel: core.Parallel{PPStages: 2, Microbatches: 4}},
			Spec{Benchmark: "translation_transformer", PP: 2, Schedule: "1f1b", Microbatches: 4}, goldenTransformerPP2Digest},
		{"ncf_serial", core.TrainConfig{}, serial("recommendation"), goldenNCFSerialDigest},
		{"resnet_serial", core.TrainConfig{}, serial("image_classification"), goldenResNetSerialDigest},
		{"resnet_serial_f32", core.TrainConfig{Numerics: precision.Numerics{Compute: tensor.Float32}},
			serial("image_classification"), goldenResNetF32SerialDigest},
		{"transformer_serial", core.TrainConfig{}, serial("translation_transformer"), goldenTransformerSerialDigest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.Seed = 1
			digest := func(eng Engine) string {
				defer eng.Close()
				for i := 0; i < steps; i++ {
					eng.StepNext()
					if err := eng.Err(); err != nil {
						t.Fatal(err)
					}
				}
				dig := NewDigest()
				dig.Add(eng.Params())
				return dig.Sum()
			}
			var built Engine
			var err error
			if tc.cfg.Numerics == (precision.Numerics{}) {
				built, err = Build(tc.spec, nil, 0)
			} else {
				built, _, err = core.NewEngine(core.V05, tc.spec.Benchmark, pipeline.Config{
					Endpoint: transport.Endpoint{Workers: tc.spec.DP}, Stages: 1,
					Microbatches: tc.spec.Microbatches, Seed: tc.spec.Seed, Numerics: tc.cfg.Numerics,
				})
			}
			if err != nil {
				t.Fatal(err)
			}
			b, err := core.Configure(core.Version(tc.spec.normalized().Version), tc.spec.Benchmark, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			fromBuild := digest(built)
			fromConfigure := digest(b.New(tc.spec.Seed).(*pipeline.Workload).Engine())
			if fromBuild != fromConfigure || fromBuild != tc.digest {
				t.Fatalf("the two builders train different runs, or the bits moved:\n Build %s\n Configure %s\n want %s", fromBuild, fromConfigure, tc.digest)
			}
		})
	}
}

// One default grain: with no Microbatches pinned, core.Configure and Build
// both leave the reduction grain to pipeline.Config.Resolved, so
// mlperf -dp K and mlperf-worker -dp K train the same M.
func TestConfigureAndBuildDefaultMicrobatches(t *testing.T) {
	for _, dp := range []int{2, 3, 4, 8} {
		b, err := core.Configure(core.V05, "recommendation", core.TrainConfig{Parallel: core.Parallel{DP: dp}})
		if err != nil {
			t.Fatal(err)
		}
		configured := b.New(1).(*pipeline.Workload).Engine()
		built, err := Build(Spec{Benchmark: "recommendation", DP: dp, Seed: 1}, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, want := configured.M, built.(*pipeline.Engine).M
		configured.Close()
		built.Close()
		if got != want {
			t.Errorf("DP %d: Configure resolves %d microbatches, Build %d", dp, got, want)
		}
	}
}
