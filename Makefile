GO ?= go

BENCH_SMOKE_OUT ?= bench-smoke.out

.PHONY: all ci check fmt vet cross staticcheck lint build test test-short race bench bench-smoke bench-kernels bench-gemm bench-ckpt bench-conv bench-step bench-engine smoke-f32 multiproc-smoke serve-smoke suite-smoke chaos-smoke conv-fuzz-smoke gemm-fuzz-smoke frame-fuzz-smoke mllog-fuzz-smoke codec-fuzz-smoke lines

all: check

# Everything CI runs, in the same order — reproduce any CI failure locally
# with exactly `make ci` (the workflow jobs call these same targets).
ci: check race multiproc-smoke chaos-smoke conv-fuzz-smoke gemm-fuzz-smoke frame-fuzz-smoke mllog-fuzz-smoke codec-fuzz-smoke bench-smoke smoke-f32 serve-smoke suite-smoke

# The fast gate: formatting, static checks (incl. the repo's own analyzer
# suite), a full build, and the fast tests.
check: fmt vet cross staticcheck lint build test-short

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The cross-build gate: the whole module built, and internal/tensor vetted,
# for an architecture without the assembly kernels, so every declaration in
# a *_amd64.go keeps its !amd64 twin in a *_noasm.go with the same
# signature (nothing else builds them); then the sealed formats' packages
# for a big-endian one, whose images must stay little-endian. Offline, a
# few seconds.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor
	GOARCH=s390x $(GO) build ./internal/seal ./internal/ckpt ./internal/models

# staticcheck runs when installed (CI installs the same pinned version:
# go install honnef.co/go/tools/cmd/staticcheck@2025.1.1).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1.1)"; \
	fi

# The repo's own analyzer suite (internal/analysis, driven by
# cmd/mlperf-vet): determinism (no wall clock/global rand/FMA/unordered
# map ranges), arena acquire/release ownership, //mlperfvet:hotpath
# allocation-freedom, MLLOG compliance keys, and fork-join pool re-entry.
lint:
	$(GO) run ./cmd/mlperf-vet ./...

build:
	$(GO) build ./...

# Full suite, including the ~45s model-convergence tests.
test:
	$(GO) test ./...

# Fast suite (< 10s): convergence tests run at reduced epoch budgets.
test-short:
	$(GO) test -short ./...

# Race-detector pass over the fast suite: the ring all-reduce, the parallel pool,
# the run-set executor, and the arena are all concurrency-heavy.
race:
	$(GO) test -race -short ./...

# Multi-process training smoke under the race detector: the grid tests
# re-exec the test binary as real OS worker processes over loopback TCP and
# require bit-identity with the in-process fabric and the serial baseline,
# plus typed (not hung) detection of killed and hung workers. `make race`
# skips these (-short); this target runs exactly them, with a hard timeout
# so a transport hang fails fast instead of stalling CI.
multiproc-smoke:
	$(GO) test -race -run 'MultiProc' -timeout 300s -v ./internal/grid/

# Fault-tolerance smoke under the race detector: a multi-process loopback
# grid loses a worker to a seeded chaos-injected crash (internal/chaos),
# the supervisor respawns it from the newest complete checkpoint set
# (internal/ckpt), and the completed run must report trajectory digests
# bit-identical to a never-killed reference, and a supervised run started
# with Resume resumes its first generation — plus the checkpoint/resume
# and crash-boundary sweeps in ckpt, core, and pipeline (whose one-stage
# rows are the data-parallel resume sweep).
chaos-smoke:
	$(GO) test -race -run 'TestSupervisedChaos|TestSuperviseResume|TestMultiProcResume|TestMultiProcCoordinatorDeath' -timeout 300s -v ./internal/grid/
	$(GO) test -race -timeout 300s ./internal/ckpt/ ./internal/chaos/
	$(GO) test -race -run 'Resume|Checkpoint|Crash' -timeout 300s ./internal/core/ ./internal/pipeline/

# Convolution-kernel fuzz smoke: twenty seconds of FuzzConv2DParity, the
# direct forward and backward kernels against the naive elementwise
# references bit for bit on shapes nobody wrote down (plain `go test`
# already runs its seed corpus: the ResNet layers and the edge shapes).
# The hard timeout turns a hung fuzz worker into a failure.
conv-fuzz-smoke:
	timeout 180 $(GO) test -run '^$$' -fuzz FuzzConv2DParity -fuzztime 20s ./internal/tensor

# GEMM-engine fuzz smoke: twenty seconds of FuzzGEMMParity, the naive
# kernels, the packed engine, the pack-free run and the dispatcher against
# each other bit for bit, in both element types (a dtype byte picks float64
# or float32) and on both micro-kernel backends, over shapes up to 96 a
# side with zeros, negative zeros and denormals (plain `go test` already
# runs its seed corpus: every product the models run and the shapes either
# side of each dispatch line, once per element type).
gemm-fuzz-smoke:
	timeout 180 $(GO) test -run '^$$' -fuzz FuzzGEMMParity -fuzztime 20s ./internal/tensor

# Frame-decoder fuzz smoke: twenty seconds of FuzzReadFrame, the transport's
# one parser of bytes a peer chose. No panic, no allocation past the payload
# limit whatever size a header declares, and an accepted frame re-encodes to
# the bytes it was read from (plain `go test` already runs its seed corpus:
# a frame of every kind plus truncated, oversized and bad-CRC ones). Then
# twenty seconds of FuzzCoordinatorConn, the same bytes as a connection's
# opening to a rendezvous coordinator: no panic, Close leaves no goroutine,
# and only a well-formed join for a free, in-range rank is admitted.
frame-fuzz-smoke:
	timeout 180 $(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 20s ./internal/transport
	timeout 180 $(GO) test -run '^$$' -fuzz FuzzCoordinatorConn -fuzztime 20s -parallel 2 ./internal/transport

# MLLOG fuzz smoke: twenty seconds of FuzzCheckLog, the mlperf-compliance
# path (mlog.Parse, then submission.CheckLog's §4.1 rules) over arbitrary
# bytes. No panic, and the same input always gets the same verdict (plain
# `go test` already runs its seed corpus: a real run's log, cut and garbled).
mllog-fuzz-smoke:
	timeout 180 $(GO) test -run '^$$' -fuzz FuzzCheckLog -fuzztime 20s ./internal/submission

# Sealed-state fuzz smoke: twenty seconds each of FuzzLoad, the checkpoint
# decoder, and FuzzLoadSnapshot, the parameter-snapshot decoder: the two
# parsers of bytes read back from disk. No panic, no allocation the input
# bytes do not back, and an accepted image re-saves to the bytes it was
# read from (plain `go test` already runs their seed corpora: valid images,
# cuts inside every section, flipped seals, oversized counts).
codec-fuzz-smoke:
	timeout 180 $(GO) test -run '^$$' -fuzz 'FuzzLoad$$' -fuzztime 20s ./internal/ckpt
	timeout 180 $(GO) test -run '^$$' -fuzz 'FuzzLoadSnapshot$$' -fuzztime 20s ./internal/models

# The number a simplicity PR reports before and after: non-blank,
# non-comment lines of Go outside tests and the frozen bench/ driver.
lines:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l

# Every table/figure benchmark plus the kernel microbenchmarks.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Compile-and-run-once smoke over every benchmark in the repo, then fail if
# any steady-state step benchmark (BenchmarkStepAllocs* for serial/DP,
# BenchmarkStepPipeline* for PP and hybrid DP×PP, ResNet and Transformer),
# GEMM kernel benchmark (BenchmarkGEMM*, incl. the naive references and the
# small-shape rows on every path in both element types), the elementwise
# passes around them (BenchmarkAddInPlace, BenchmarkReLU,
# BenchmarkMulAddVec), the update and the gradient's way into its
# reduction row (BenchmarkAdamStep, BenchmarkFlattenGradsScaled), the ring
# (BenchmarkRingAllReduce), warm serving-step benchmark (BenchmarkServe*),
# the warm checkpoint encoder (BenchmarkCkptSaveDiscard), or a
# direct-convolution kernel on caller-owned storage (BenchmarkConv*Planes,
# BenchmarkConv*Into) reports a nonzero allocs/op — the allocation-free
# hot-path regression gate.
#
# The step and ring rows are gated on a second pass at STEP_GATE_ITERS
# iterations, not on the 1x pass. Their engines park goroutines on channels,
# and the runtime allocates what a goroutine parks on whenever its own free
# lists run dry (after the benchmark's runtime.GC, or when more goroutines
# block at once than before): 1-7 allocations that are the runtime's, not
# the step's, and that a one-step run reported as 1-7 allocs/op in one run
# out of two or three. allocs/op is an integer quotient, so over 20 steps
# they read 0 while a step that allocates even once per step reads at least 1.
# Cells that poll before they park drain one processor's list towards
# another's slowly enough to read 1-2 allocs/op even over 20 steps, so these
# benchmarks fill the lists before they start counting (benchwarm.Parking).
# The pass runs at the machine's processor count: an allocation that only
# real parallelism shows is still an allocation.
#
# The small-shape GEMM rows (BenchmarkGEMMSmall, internal/tensor) are gated
# on the same pass for the same reason: in about one 1x run in fifteen, on
# a commit and its parent alike, one of the `naive` rows reads one 16-byte
# allocation that is the runtime's, not the kernel's. Over 20 iterations it
# reads 0, and a kernel that allocates once per product still reads 1.
STEP_GATE_ITERS ?= 20
STEP_GATE_BENCH = ^Benchmark(Step(Allocs|Pipeline)|RingAllReduce|GEMMSmall)
STEP_GATE = '/$(STEP_GATE_BENCH)/ { if ($$(NF-1) != "0" || $$NF != "allocs/op") { print "FAIL: step allocates: " $$0; bad = 1 } } \
	END { if (bad) exit 1; print "all BenchmarkStepAllocs*/BenchmarkStepPipeline*/BenchmarkRingAllReduce/BenchmarkGEMMSmall report 0 allocs/op over $(STEP_GATE_ITERS) iterations" }'

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./... > $(BENCH_SMOKE_OUT) || (cat $(BENCH_SMOKE_OUT); exit 1)
	@cat $(BENCH_SMOKE_OUT)
	@awk '/^Benchmark(GEMM|AddInPlace|ReLU|MulAddVec|AdamStep|FlattenGradsScaled|Serve|CkptSaveDiscard|Conv[A-Za-z0-9]*(Into|Planes))/ && !/^BenchmarkGEMMSmall/ { if ($$(NF-1) != "0" || $$NF != "allocs/op") { print "FAIL: hot path allocates: " $$0; bad = 1 } } \
		END { if (bad) exit 1; print "bench-smoke: all BenchmarkGEMM* but GEMMSmall/BenchmarkAddInPlace/BenchmarkReLU/BenchmarkMulAddVec/BenchmarkAdamStep/BenchmarkFlattenGradsScaled/BenchmarkServe*/BenchmarkCkptSaveDiscard/BenchmarkConv*Into/BenchmarkConv*Planes report 0 allocs/op" }' $(BENCH_SMOKE_OUT)
	$(GO) test -run '^$$' -bench '$(STEP_GATE_BENCH)' -benchtime $(STEP_GATE_ITERS)x -benchmem . ./internal/transport ./internal/tensor > $(BENCH_SMOKE_OUT) || (cat $(BENCH_SMOKE_OUT); exit 1)
	@cat $(BENCH_SMOKE_OUT)
	@awk $(STEP_GATE) $(BENCH_SMOKE_OUT)

# Reduced-numerics smoke: short training runs under each reduced regime
# through the CLI (f32 GEMM → low-precision autograd staging → mixed
# precision → harness plumbing, end to end), then the numerics-focused
# test slices across the stack (the engine's reduced-regime identity grid
# is internal/pipeline's TestDPNumerics*). The float32 GEMM tests are the `f32`
# subtests of the engine's shared tests (TestGEMM*, TestMatMul*, the
# FuzzGEMMParity corpus), so the pattern names those tests whole: it is
# the pattern that follows the merge, the subtest names are plain `f64` /
# `f32`. The reduced-regime golden pin rides along. The fp64 regime needs
# no smoke of its own: every other target trains it.
smoke-f32:
	$(GO) run ./cmd/mlperf -benchmark recommendation -dtype f32 -runs 1 -max-epochs 2
	$(GO) run ./cmd/mlperf -benchmark recommendation -dtype bf16 -runs 1 -max-epochs 2
	$(GO) test -run 'F32|BF16|GEMM|MatMul|Numerics|StatCheck|Quantize|MP|LP' ./internal/tensor ./internal/autograd ./internal/precision ./internal/core ./internal/pipeline
	$(GO) test -run 'GoldenNCFReduced' ./internal/grid

# Serving smoke: train a tiny NCF in-process, snapshot its parameters, and
# serve it under every traffic scenario (single-stream, multi-stream,
# offline, and Poisson server) through cmd/mlperf-serve, bounded by a hard
# timeout so an overload-path hang fails fast. The grep asserts an SLO
# verdict was actually emitted for the gated run — the train→snapshot→serve
# pipeline end to end. The second run serves the saved snapshot at 2000 QPS
# gated on a 0.3 ms median: a batcher that holds partial batches on a timer
# (2 ms was the old default) fails it, and so does a load generator paced
# by time.Sleep (about 0.6 ms on two vCPUs); nanosleep pacing reads about
# 0.08 ms.
serve-smoke:
	timeout 300 $(GO) run ./cmd/mlperf-serve -train -epochs 2 -save serve-smoke.snap -scenario all \
		-queries 400 -qps 300 -slo 250ms -strict > serve-smoke.out || (cat serve-smoke.out; rm -f serve-smoke.snap; exit 1)
	@cat serve-smoke.out
	@grep -q 'SLO valid' serve-smoke.out || (echo "FAIL: no SLO verdict in serve-smoke output"; rm -f serve-smoke.snap; exit 1)
	timeout 120 $(GO) run ./cmd/mlperf-serve -snapshot serve-smoke.snap -scenario server \
		-qps 2000 -queries 2000 -percentile 0.5 -slo 300us -strict > serve-smoke.out || (cat serve-smoke.out; rm -f serve-smoke.snap; exit 1)
	@cat serve-smoke.out
	@rm -f serve-smoke.out serve-smoke.snap
	@echo "serve-smoke: all four scenarios served with a valid SLO verdict; server p50 at 2000 QPS under 0.3 ms"

# Suite smoke: every benchmark of Table 1 for one epoch through
# cmd/mlperf, then the three without a partitioner that train on the engine
# besides NCF (SSD, Mask R-CNN, GNMT) at DP-2 with a checkpoint, resumed
# from it for a second epoch. A refused flag exits 2, a failed run exits 1,
# a resume that found nothing logs no resume_from_step, and each fails the
# target; every run has a hard timeout.
SUITE_SMOKE_DIR ?= suite-smoke.d
SUITE_SMOKE_IDS = image_classification object_detection_ssd instance_segmentation_maskrcnn translation_gnmt translation_transformer recommendation reinforcement_learning
SUITE_SMOKE_DP_IDS = object_detection_ssd instance_segmentation_maskrcnn translation_gnmt

suite-smoke:
	@rm -rf $(SUITE_SMOKE_DIR) && mkdir -p $(SUITE_SMOKE_DIR)
	$(GO) build -o $(SUITE_SMOKE_DIR)/mlperf ./cmd/mlperf
	@(for id in $(SUITE_SMOKE_IDS); do \
		timeout 300 $(SUITE_SMOKE_DIR)/mlperf -benchmark $$id -max-epochs 1 || exit 1; done) > $(SUITE_SMOKE_DIR)/out 2>&1 || (cat $(SUITE_SMOKE_DIR)/out; exit 1)
	@(for id in $(SUITE_SMOKE_DP_IDS); do \
		timeout 300 $(SUITE_SMOKE_DIR)/mlperf -benchmark $$id -dp 2 -max-epochs 1 -checkpoint-dir $(SUITE_SMOKE_DIR)/$$id || exit 1; \
		timeout 300 $(SUITE_SMOKE_DIR)/mlperf -benchmark $$id -dp 2 -max-epochs 2 -checkpoint-dir $(SUITE_SMOKE_DIR)/$$id -resume -mllog > $(SUITE_SMOKE_DIR)/$$id.log || (cat $(SUITE_SMOKE_DIR)/$$id.log; exit 1); \
		grep -v '^:::MLLOG' $(SUITE_SMOKE_DIR)/$$id.log; \
		grep -q '"key":"resume_from_step"' $(SUITE_SMOKE_DIR)/$$id.log || { echo "FAILED: $$id did not resume from its checkpoint"; exit 1; }; \
	done) >> $(SUITE_SMOKE_DIR)/out 2>&1 || (cat $(SUITE_SMOKE_DIR)/out; exit 1)
	@cat $(SUITE_SMOKE_DIR)/out
	@rm -rf $(SUITE_SMOKE_DIR)
	@echo "suite-smoke: all seven benchmarks trained an epoch; SSD, Mask R-CNN and GNMT trained at DP-2, checkpointed and resumed"

# Just the serial-vs-parallel substrate comparisons.
bench-kernels:
	$(GO) test -bench='MatMul|Conv2D|RunSet' -benchmem -run='^$$' .

# The GEMM engine benchmarks (packed vs naive reference, GFLOP/s via
# ReportMetric), then the small-shape rows: the products the workloads run
# near the engine's dispatch lines, each forced down every path (they live
# in internal/tensor because forcing a path needs the unexported kernels).
# BENCH_gemm.json holds the checked-in snapshot of these numbers so future
# PRs have a kernel-throughput baseline to diff against.
bench-gemm:
	$(GO) test -bench='^BenchmarkGEMM' -benchmem -run='^$$' .
	$(GO) test -bench='^BenchmarkGEMMSmall' -benchmem -run='^$$' ./internal/tensor

# The transformer step ledger (BENCH_step.json): the PP-2 1F1B step the
# repo benchmark times, one serial microbatch forward+backward with its
# tape node count, each PP-2 stage's busy time per microbatch, and the
# attention core alone as one tape node and as the composed graph it
# replaced (internal/nn keeps that graph as the test oracle), all at one
# kernel worker; LayerNorm forward and backward and the dense layer as one
# node and as MatMul + AddRowVec; then the attention row primitive and the
# tape's elementwise passes (the add, ReLU forward and backward, the
# Hadamard backward) on both their backends.
bench-step:
	$(GO) test -bench='^BenchmarkStep(PipelineTransformerPP2|TransformerMicrobatch|TransformerStageBusy)$$' -benchmem -run='^$$' .
	$(GO) test -bench='^BenchmarkAttention' -benchmem -run='^$$' ./internal/nn
	$(GO) test -bench='^Benchmark(LayerNorm|Linear)' -benchmem -run='^$$' ./internal/autograd
	$(GO) test -bench='^Benchmark(VecMat|AddInPlace|ReLU|MulAddVec)' -benchmem -run='^$$' ./internal/tensor

# The engine ledger (BENCH_engine.json): the NCF step at the reference batch
# and at 256 across worker counts on two processors (DP-4 and DP-8 are the
# oversubscribed rows), the hybrid ResNet step, then what a step does
# outside the model: the Adam update, the gradient's way into its reduction
# row, and the ring round.
bench-engine:
	$(GO) test -cpu 2 -bench='^Benchmark(DPNCFStep|StepPipelineResNetHybrid2x2$$|AdamStep|FlattenGradsScaled)' -benchmem -run='^$$' .
	$(GO) test -cpu 2 -bench='^BenchmarkRingAllReduce' -benchmem -run='^$$' ./internal/transport

# The direct-convolution kernels on the five convolutions the default
# ResNet runs, forward and backward (GFLOP/s via ReportMetric, one kernel
# worker). BENCH_conv.json holds the checked-in before/after rows of the
# row-form backward and the output-stationary forward.
bench-conv:
	$(GO) test -bench='^BenchmarkConv2D(Planes|BackwardInto)' -benchmem -run='^$$' .

# The sealed-state codec benchmarks (checkpoint and snapshot save/load on
# the PP-2 transformer state, MB/s and allocs/op), then the two seals over
# one megabyte (FNV-1a against XXH64). BENCH_ckpt.json holds the
# checked-in rows.
bench-ckpt:
	$(GO) test -bench='^Benchmark(Ckpt|Snapshot)' -benchmem -run='^$$' .
	$(GO) test -bench='^Benchmark(FoldBytes|Sum64)$$' -benchmem -run='^$$' ./internal/seal
