GO ?= go

BENCH_SMOKE_OUT ?= bench-smoke.out

.PHONY: all ci check fmt vet cross staticcheck lint build test test-short race bench bench-smoke bench-kernels bench-gemm bench-ckpt bench-conv bench-step bench-engine bench-eval smoke-f32 multiproc-smoke serve-smoke suite-smoke chaos-smoke fuzz-smoke lines

all: check

# Everything CI runs, in the same order — reproduce any CI failure locally
# with exactly `make ci` (the workflow jobs call these same targets).
ci: check race multiproc-smoke chaos-smoke fuzz-smoke bench-smoke smoke-f32 serve-smoke suite-smoke

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

# $(call guarded-test,PKGS,PATTERN): go test -race -v -run PATTERN over
# PKGS under a hard timeout, failing when PATTERN selects no test, so a
# renamed test or table row cannot turn a CI step into a no-op that passes.
# go test -list lists top-level tests only: it checks each |-alternative of
# PATTERN's top level, and a PATTERN with a subtest part must also pass at
# least one subtest.
define guarded-test
	@for t in $(subst |, ,$(firstword $(subst /, ,$(2)))); do \
		$(GO) test -list "$$t" $(1) | grep -q '^Test' || { echo "no test in $(1) matches $$t"; exit 1; }; \
	done
	$(GO) test -race -timeout 300s -v -run '$(2)' $(1) > $@.out 2>&1; s=$$?; cat $@.out; [ $$s = 0 ]$(if $(findstring /,$(2)), && grep -q -- '--- PASS: [^ ]*/' $@.out)
endef

# Multi-process training smoke under the race detector: the plain rows of
# the grid's fault table (TestMultiProcFaults) re-exec the test binary as
# real OS worker processes over loopback TCP. A run without a fault, and a
# second grid resuming from the checkpoints of a first (the resumed rows),
# must reproduce the in-process reference's digests; a worker that exits
# or hangs mid-run must fail the run typed, within a bound, naming the
# dead rank or the straggler, never hang it. `make race` skips these
# (-short).
multiproc-smoke:
	$(call guarded-test,./internal/grid/,TestMultiProcFaults/.*plain)

# Fault-tolerance smoke under the race detector: the supervised rows of the
# fault table, where the supervisor respawns a generation that lost a
# worker to an exit or a hang from the newest complete checkpoint set
# (internal/ckpt) and the completed run must report digests bit-identical
# to a never-killed reference, and where a run started with Resume (the
# resumed rows) resumes its first generation; then a grid whose
# coordinator dies must exit (its own call: go test -run splits a pattern
# into levels at each /, so it cannot share the table's pattern); plus the
# checkpoint/resume and crash-boundary sweeps in ckpt, core, and pipeline
# (whose TestInvarianceResume is the invariance matrix's resume rows:
# every shape, schedule, mesh, pool size and regime resumed from
# checkpoint files).
chaos-smoke:
	$(call guarded-test,./internal/grid/,TestMultiProcFaults/.*supervised)
	$(call guarded-test,./internal/grid/,TestMultiProcCoordinatorDeath)
	$(GO) test -race -timeout 300s ./internal/ckpt/ ./internal/chaos/
	$(call guarded-test,./internal/core/ ./internal/pipeline/,Resume|Checkpoint|Crash)

# Fuzz smoke: twenty seconds of each native fuzz target, one after another,
# each under a hard timeout that turns a hung fuzz worker into a failure
# (plain `go test` already runs every seed corpus):
#   FuzzConv2DParity   the direct convolution kernels, forward and backward,
#                      against the naive elementwise references bit for bit
#                      on shapes nobody wrote down (corpus: the ResNet layers
#                      and the edge shapes);
#   FuzzGEMMParity     the naive kernels, the packed engine, the pack-free
#                      run and the dispatcher against each other bit for bit,
#                      in both element types and on both micro-kernel
#                      backends, over shapes up to 96 a side with zeros,
#                      negative zeros and denormals (corpus: every product
#                      the models run and the shapes either side of each
#                      dispatch line, once per element type);
#   FuzzReadFrame      the transport's one parser of bytes a peer chose: no
#                      panic, no allocation past the payload limit whatever
#                      size a header declares, and an accepted frame
#                      re-encodes to the bytes it was read from;
#   FuzzCoordinatorConn the same bytes as a connection's opening to a
#                      rendezvous coordinator: no panic, Close leaves no
#                      goroutine, and only a well-formed join for a free,
#                      in-range rank is admitted;
#   FuzzCheckLog       the mlperf-compliance path (mlog.Parse, then
#                      submission.CheckLog's §4.1 rules) over arbitrary
#                      bytes: no panic, and the same input always gets the
#                      same verdict (corpus: a real run's log, cut and
#                      garbled);
#   FuzzLoad, FuzzLoadSnapshot  the checkpoint and parameter-snapshot
#                      decoders, the two parsers of bytes read back from
#                      disk: no panic, no allocation the input bytes do not
#                      back, and an accepted image re-saves to the bytes it
#                      was read from (corpora: valid images, cuts inside
#                      every section, flipped seals, oversized counts).
FUZZ = timeout 180 $(GO) test -run '^$$' -fuzztime 20s -fuzz

fuzz-smoke:
	$(FUZZ) FuzzConv2DParity ./internal/tensor
	$(FUZZ) FuzzGEMMParity ./internal/tensor
	$(FUZZ) FuzzReadFrame ./internal/transport
	$(FUZZ) FuzzCoordinatorConn -parallel 2 ./internal/transport
	$(FUZZ) FuzzCheckLog ./internal/submission
	$(FUZZ) 'FuzzLoad$$' ./internal/ckpt
	$(FUZZ) 'FuzzLoadSnapshot$$' ./internal/models

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
# the warm checkpoint encoder (BenchmarkCkptSaveDiscard), a
# direct-convolution kernel on caller-owned storage (BenchmarkConv*Planes,
# BenchmarkConv*Into), or a warm evaluation of NCF or ResNet
# (BenchmarkEval/recommendation, BenchmarkEval/image_classification: the
# models whose Evaluate is all forward) reports a nonzero allocs/op — the
# allocation-free hot-path regression gate.
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
	@awk '/^Benchmark(GEMM|AddInPlace|ReLU|MulAddVec|AdamStep|FlattenGradsScaled|Serve|CkptSaveDiscard|Conv[A-Za-z0-9]*(Into|Planes)|BatchNorm2D|Eval\/(recommendation|image_classification))/ && !/^BenchmarkGEMMSmall/ { if ($$(NF-1) != "0" || $$NF != "allocs/op") { print "FAIL: hot path allocates: " $$0; bad = 1 } } \
		END { if (bad) exit 1; print "bench-smoke: all BenchmarkGEMM* but GEMMSmall/BenchmarkAddInPlace/BenchmarkReLU/BenchmarkMulAddVec/BenchmarkAdamStep/BenchmarkFlattenGradsScaled/BenchmarkServe*/BenchmarkCkptSaveDiscard/BenchmarkConv*Into/BenchmarkConv*Planes/BenchmarkBatchNorm2D/BenchmarkEval/(recommendation|image_classification) report 0 allocs/op" }' $(BENCH_SMOKE_OUT)
	$(GO) test -run '^$$' -bench '$(STEP_GATE_BENCH)' -benchtime $(STEP_GATE_ITERS)x -benchmem . ./internal/transport ./internal/tensor > $(BENCH_SMOKE_OUT) || (cat $(BENCH_SMOKE_OUT); exit 1)
	@cat $(BENCH_SMOKE_OUT)
	@awk $(STEP_GATE) $(BENCH_SMOKE_OUT)

# Reduced-numerics smoke: short training runs under each reduced regime
# through the CLI (f32 GEMM → low-precision autograd staging → mixed
# precision → harness plumbing, end to end), then the numerics-focused
# test slices across the stack (the engine's reduced-regime identity rows
# are internal/pipeline's TestInvarianceNumerics). The float32 GEMM tests are the `f32`
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
# worker), and its BatchNorm at both activation shapes; then BatchNorm pass
# by pass on the AVX2 and portable bodies beside the scalar loops they
# replaced; then the whole one-worker ResNet step they sit in.
# BENCH_conv.json holds the checked-in before/after rows.
bench-conv:
	$(GO) test -bench='^Benchmark(Conv2D(Planes|BackwardInto)|BatchNorm2D)' -benchmem -run='^$$' .
	$(GO) test -bench='^BenchmarkBatchNormPasses' -run='^$$' ./internal/tensor
	$(GO) test -cpu 1 -bench='^BenchmarkStepAllocsResNet$$' -benchmem -run='^$$' .

# One warm Evaluate of each engine benchmark after two epochs at seed 1
# (ms/op, B/op, allocs/op). BENCH_eval.json holds the checked-in rows.
bench-eval:
	$(GO) test -bench='^BenchmarkEval$$' -benchtime 5x -benchmem -run='^$$' .

# The sealed-state codec benchmarks (checkpoint and snapshot save/load on
# the PP-2 transformer state, MB/s and allocs/op), then the two seals over
# one megabyte (FNV-1a against XXH64). BENCH_ckpt.json holds the
# checked-in rows.
bench-ckpt:
	$(GO) test -bench='^Benchmark(Ckpt|Snapshot)' -benchmem -run='^$$' .
	$(GO) test -bench='^Benchmark(FoldBytes|Sum64)$$' -benchmem -run='^$$' ./internal/seal
