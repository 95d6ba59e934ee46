// Package repro is a from-scratch Go reproduction of "MLPerf Training
// Benchmark" (Mattson et al., MLSys 2020): the benchmark suite of Table 1,
// the time-to-train measurement methodology with its timing rules, the
// submission/review process, and every evaluation artifact in the paper.
//
// The package tree:
//
//	internal/core       — suite, runner, timing rules, aggregation (the
//	                      paper's contribution); two-regime verification:
//	                      the fp64 stack is gated bitwise, reduced
//	                      numerics are gated by StatCheck, the §3.3
//	                      epochs-to-quality quantile comparison over
//	                      paired run sets. TrainConfig + Configure is the
//	                      one run-configuration surface (topology ×
//	                      numerics), and NewEngine the one constructor
//	                      of a training engine, for every caller. Run is
//	                      the only entry to one timed run (checkpoint and
//	                      resume included, checkpoints written after the
//	                      convergence decision; every failure is its
//	                      RunResult.Err), and RunSet the only code that
//	                      runs a run set (run i: seed+i, its own clock,
//	                      logger and run<i> checkpoint directory)
//	internal/parallel   — worker pool + sharded loops and 2-D tile loops
//	                      (ForTiles: row×column output tiles, so skinny and
//	                      short matrices keep every worker busy;
//	                      deterministic parallel substrate)
//	internal/arena      — generic size-bucketed buffer pool (float64 and
//	                      float32 element types) with per-worker free
//	                      lists; backs the allocation-free steady-state
//	                      training step (0 allocs/op after warmup) and the
//	                      GEMM pack buffers (GetRaw)
//	internal/tensor     — dense tensors + deterministic RNG; one blocked,
//	                      packed, register-tiled GEMM engine, generic
//	                      over float64 and float32 (gemm.go:
//	                      GotoBLAS-style MC×KC×NC blocking; only the AVX2
//	                      4×8 f64 and 8×8 f32 micro-kernels and their
//	                      pack pools are typed, with one portable
//	                      fallback, bit-identical to the naive reference
//	                      kernels; the kernels take element strides, and
//	                      a whole-tile product whose operands fit L1 runs
//	                      on them in place, packing nothing: every dense
//	                      product the models run; held to the
//	                      naive kernels by FuzzGEMMParity); AddVec and
//	                      Zero, the vector-lane passes the tape makes
//	                      around each product, and ScaleVec and
//	                      AdamUpdate, the ones a step makes outside the
//	                      model (each AVX2 lane is the scalar sequence of
//	                      its element, held to the scalar loops bit for
//	                      bit); F32 storage + bf16 rounding;
//	                      direct convolution (conv.go): one operand
//	                      layout in which a vector lane is an output
//	                      filter (forward, dw) or an input channel (dx),
//	                      never an output column; one pass list per shape
//	                      (positions grouped by the taps they keep, built
//	                      once into a bounded table) run by
//	                      an AVX2 body (conv_amd64.s) or its portable
//	                      twin, under the forward, the serial backward
//	                      (convBackward) and both parallel legs; results
//	                      are overwritten. Term order is the contract
//	                      (dx in (of,oy,ox), dw/db in (in,oy,ox), forward
//	                      bias then (ic,ky,kx); multiply then add; a zero
//	                      upstream gradient adds no term: −0.0 in a lane),
//	                      held bit for bit on both bodies to the naive
//	                      nests kept in conv_test.go by table tests and
//	                      FuzzConv2DParity; throughput ledger in
//	                      BENCH_conv.json (make bench-conv)
//	internal/autograd   — tape-based reverse-mode autodiff (pooled, replayable
//	                      tapes: Reset + slot reuse keep warm steps alloc-free;
//	                      per-tape compute dtype stages MatMul operands in
//	                      f32/bf16, BackwardScaled seeds the loss scale).
//	                      Each op has one forward and records on a tape;
//	                      all-constant operands panic.
//	                      autograd.Linear is the dense layer as one node:
//	                      the MatMul node with the bias as an epilogue,
//	                      bit for bit AddRowVec(MatMul(x, w), b).
//	                      autograd.Attention is multi-head scaled
//	                      dot-product attention as ONE tape node: it works
//	                      in place on column ranges of the projected
//	                      q/k/v over tensor.VecMat rows (AVX2 with a
//	                      portable fallback), saves only the
//	                      probabilities, forms dq/dk/dv in one backward
//	                      pass, always at float64, and carries the bits of
//	                      the slice/matmul/softmax/concat graph it
//	                      replaced (kept in internal/nn's tests as the
//	                      oracle); step ledger in BENCH_step.json (make
//	                      bench-step)
//	internal/nn         — layer library (conv, BN, LSTM, attention, ...)
//	internal/opt        — SGD (both §2.2.4 momentum forms), Adam, LARS, schedules;
//	                      Adam's update runs on tensor.AdamUpdate's
//	                      vector lanes
//	internal/precision  — simulated numeric formats (Figure 1, applied by
//	                      the ResNet optimizer) and the
//	                      mixed-precision trainer: bf16 master-weight
//	                      rounds, fp32/fp64 accumulation, dynamic loss
//	                      scaling (power-of-two scales, exact unscale in
//	                      MP.Apply, the one place the scale is divided
//	                      out); a regime is its compute dtype
//	internal/data       — input pipeline: seeded epoch shuffling,
//	                      minibatching, data-parallel sharding
//	internal/datasets   — synthetic stand-ins for ImageNet/COCO/WMT/MovieLens
//	internal/metrics    — top-1, mAP at IoU 0.5, BLEU, HR@10 (a NaN score
//	                      is a miss), move match
//	internal/models     — the 7 benchmark models: six as microbatch losses
//	                      the engine trains (ResNet and the Transformer
//	                      with partitioners; GNMT's gradient clip is an
//	                      optimizer wrapper), and MiniGo, whose self-play
//	                      data grows between epochs, as the one Workload
//	                      with a loop of its own
//	internal/pipeline   — the one training engine: K data-parallel replicas
//	                      × S cost-balanced model stages (cut at ResNet
//	                      blocks or at the Transformer's residual
//	                      sublayers), one 1F1B microbatch order,
//	                      per-stage ring groups, mixed precision at S = 1;
//	                      bit-identical across stages/workers.
//	                      A serial run is its K = S = M = 1 corner
//	internal/dist       — two names (Engine, NewRingOver) the frozen
//	                      bench/ driver compiles against; every engine,
//	                      data-parallel ones included, is built by
//	                      core.NewEngine
//	internal/transport  — pluggable communication substrate under the
//	                      engines (the Mesh contract): the in-process
//	                      channel fabric (the bit-identity oracle) and a
//	                      TCP backend with length-prefixed CRC frames,
//	                      deadlines, and retry/backoff; the deterministic
//	                      chunked ring all-reduce (Ring) over either,
//	                      summing rows on vector lanes; a consumer of an
//	                      in-process lane yield-polls before it parks
//	                      (YieldPoll, which the engine's cells share), a
//	                      consumer of a TCP lane parks at once; engine
//	                      ledger in BENCH_engine.json (make bench-engine); plus
//	                      the rendezvous coordinator/session (the address
//	                      table, the counted worker barrier, failure
//	                      detection by a read deadline on each control
//	                      connection). Both backends keep their lanes in
//	                      one lane table (lanes.go); the engine's grid is
//	                      S·K endpoints of one mesh and its rings are Sub
//	                      views of them. Failure is always a typed
//	                      *PeerError, never a hang
//	internal/grid       — multi-process DP×PP training: one OS process per
//	                      grid cell (rank k·S+s = replica k, stage s),
//	                      launcher/worker harness (cmd/mlperf-worker),
//	                      FNV-1a parameter-trajectory digests, the
//	                      in-process Reference run the TCP grid must
//	                      reproduce bit-for-bit, and the elastic
//	                      supervisor (Supervise): a failed generation is
//	                      respawned from the newest complete checkpoint
//	                      set (the first generation too, with
//	                      Spec.Resume) and still finishes digest-identical
//	                      to a never-killed run
//	internal/ckpt       — sealed training checkpoints (fuzzed by FuzzLoad,
//	                      make fuzz-smoke): the full TrainState
//	                      (params, optimizer slots, loss scale, loader
//	                      cursor, step/epoch) in one digest-verified file
//	                      (MLPCKPT2, sealed by seal.Sum64; MLPCKPT1 files,
//	                      sealed by FNV-1a, still load). Writer.Write
//	                      encodes and seals it into a reused buffer and
//	                      returns; a goroutine persists it atomically
//	                      (temp+rename, file and directory fsynced) with
//	                      bounded retention while training goes on, and
//	                      Flush is the durability point. Latest/
//	                      LatestComplete see this process's writes and
//	                      pick the newest valid set, so a torn or corrupt
//	                      file can never be resumed from
//	internal/seal       — what the sealed formats and digests share: the
//	                      two seals (FNV-1a, byte-serial, for version-1
//	                      images, Snapshot.Digest, grid.Digest and the
//	                      transport's dial jitter; Sum64, four-lane XXH64,
//	                      for the version-2 images models.Snapshot and
//	                      ckpt write), append-style little-endian encoders
//	                      (bulk float64 bit patterns), and a bounds-checked
//	                      decoding cursor
//	internal/chaos      — seeded fault injection: a Fault is one worker
//	                      exit or hang at a (generation, rank, step), and
//	                      grid.Spec.Faults is a run's one fault list;
//	                      Crashes draws seeded exits, a pure function of
//	                      its inputs; Wrap/ConnFaults are the wire faults
//	                      (frame corruption the CRC must catch, drops,
//	                      delays) via transport's WrapConn hook
//	internal/serve      — LoadGen-style serving harness over trained
//	                      models: four traffic scenarios (single-stream,
//	                      multi-stream, offline, Poisson server), workers
//	                      that form their own batches from an
//	                      admission-controlled bounded queue (overload is
//	                      a typed *OverloadError, never a hang), arrivals
//	                      paced by nanosleep(2) on Linux, R-7
//	                      tail-latency quantiles via core.Quantile, SLO
//	                      verdicts, and binary-searched
//	                      max sustainable QPS; arrival schedules and
//	                      predictions are bit-reproducible at a fixed seed
//	                      across runs and worker counts. Driven by
//	                      cmd/mlperf-serve; fed by models.Snapshot, the
//	                      deterministic digest-verified parameter handoff
//	                      from core.Run's CaptureParams
//	internal/leakcheck  — goroutine-leak assertions for teardown tests
//	internal/benchwarm  — fills the runtime's sudog free lists before an
//	                      allocation benchmark starts counting
//	internal/goboard    — Go engine; internal/mcts — self-play search
//	internal/mlog       — MLLOG structured logging
//	internal/clock      — injectable clocks (Real wall clock, Tick, Sim);
//	                      the only package allowed to call time.Now, so
//	                      every timing path is deterministic under test
//	internal/cluster    — simulated scale-out (Figures 4–5); the §4.2.3
//	                      cloud-scale metric is submission's
//	internal/submission — §4 divisions, categories, review, reporting;
//	                      CheckLog is the one copy of the §4.1 log rules,
//	                      which Review and cmd/mlperf-compliance both
//	                      apply (fuzzed by FuzzCheckLog)
//	internal/analysis   — the mlperf-vet analyzer suite (detlint,
//	                      arenalint, hotpath, mloglint, nestpar):
//	                      mechanical enforcement of the determinism,
//	                      arena-ownership, hot-path-allocation, MLLOG-key,
//	                      and pool-re-entry invariants; driven by
//	                      cmd/mlperf-vet (make lint, gated in CI).
//	                      TestEveryExportHasACaller type-checks the module
//	                      and fails on an exported name under internal/
//	                      that only tests call, outside its allowlist
//
// The benchmarks in bench_test.go regenerate every table and figure; see
// README.md ("Reproducing the paper's artifacts") and ROADMAP.md.
package repro
