package grid

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/ckpt"
	"repro/internal/leakcheck"
	"repro/internal/mlog"
	"repro/internal/pipeline"
	"repro/internal/transport"
)

// TestMain is the re-exec dispatch: the multi-process tests launch this
// same test binary as the worker processes (grid environment set), which
// must run WorkerMain instead of the test suite.
func TestMain(m *testing.M) {
	if Worker() {
		if err := WorkerMain(); err != nil {
			fmt.Fprintf(os.Stderr, "grid worker: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	// Start hands the workers this environment. Under -race a worker that
	// exits 0 would otherwise sleep a second first (the race runtime's
	// atexit_sleep_ms default), and every successful Wait with it.
	os.Setenv("GORACE", strings.TrimSpace(os.Getenv("GORACE")+" atexit_sleep_ms=0"))
	os.Exit(m.Run())
}

func TestSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"defaults fill in", Spec{Benchmark: "recommendation"}, true},
		{"explicit grid", Spec{Benchmark: "image_classification", DP: 2, PP: 2, Steps: 3}, true},
		{"no benchmark", Spec{}, false},
		{"bad version", Spec{Benchmark: "recommendation", Version: "v0.7"}, false},
		{"faults with their bounds", Spec{Benchmark: "recommendation", DP: 2, StragglerMS: 100, CkptDir: "d", CkptEvery: 1,
			Faults: []chaos.Fault{{Rank: 1, Step: 1, Kind: chaos.Exit}, {Gen: 1, Step: 1, Kind: chaos.Hang}}}, true},
		{"fault rank outside world", Spec{Benchmark: "recommendation", DP: 2, StragglerMS: 100, Faults: []chaos.Fault{{Rank: 5, Step: 1, Kind: chaos.Hang}}}, false},
		{"hang without straggler bound", Spec{Benchmark: "recommendation", DP: 2, Faults: []chaos.Fault{{Rank: 1, Step: 1, Kind: chaos.Hang}}}, false},
		{"exit without CkptEvery", Spec{Benchmark: "recommendation", DP: 2, Faults: []chaos.Fault{{Rank: 1, Step: 1, Kind: chaos.Exit}}}, false},
		{"CkptEvery without CkptDir", Spec{Benchmark: "recommendation", DP: 2, CkptEvery: 1}, false},
		{"Resume without CkptDir", Spec{Benchmark: "recommendation", DP: 2, Resume: true}, false},
		{"unknown fault kind", Spec{Benchmark: "recommendation", DP: 2, StragglerMS: 100, CkptDir: "d", CkptEvery: 1,
			Faults: []chaos.Fault{{Rank: 1, Step: 1, Kind: "stall"}}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(); (err == nil) != tc.ok {
				t.Errorf("Validate = %v, want ok=%v", err, tc.ok)
			}
		})
	}
	if w := (Spec{Benchmark: "x", DP: 3, PP: 2}).World(); w != 6 {
		t.Errorf("World = %d, want 6", w)
	}
}

// Bad topologies come back as errors. The PP: 64 rows ask the partitioner
// for more stages than the model has splittable units; that used to panic
// inside the stage factory, killing a worker launched with an over-deep
// -pp with a stack trace. A schedule but 1F1B is pipeline.ErrSchedule.
func TestBuildRejectsUnsupportedTopologies(t *testing.T) {
	for _, spec := range []Spec{
		{Benchmark: "recommendation", DP: 1, PP: 2},
		{Benchmark: "mystery", DP: 1},
		{Benchmark: "image_classification", PP: 64},
		{Benchmark: "translation_transformer", PP: 64},
		{Benchmark: "translation_transformer", PP: 2, Schedule: "gpipe"},
	} {
		if _, err := Build(spec, nil, 0); err == nil {
			t.Errorf("Build(%+v) succeeded; want error", spec)
		} else if spec.Schedule != "" && !errors.Is(err, pipeline.ErrSchedule) {
			t.Errorf("Build(%+v) = %v; want pipeline.ErrSchedule", spec, err)
		}
	}
}

// selfStart is the StartOptions of every multi-process test: re-exec this
// binary, with a failure-detection window of one second rather than the
// production heartbeat budget.
func selfStart(t *testing.T) StartOptions {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return StartOptions{
		Command: []string{exe},
		Stderr:  os.Stderr,
		Coordinator: transport.CoordinatorConfig{
			HeartbeatInterval: 50 * time.Millisecond,
			HeartbeatWindow:   time.Second,
		},
	}
}

// launchSelf starts the spec's grid re-executing this test binary.
func launchSelf(t *testing.T, spec Spec) *Cluster {
	t.Helper()
	c, err := Start(spec, selfStart(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestMultiProcFaults is the multi-process fault table. Every row runs a
// grid of real OS processes over loopback TCP; its axes are the row kind
// (no fault, an exit, a hang, or a resume), the topology (NCF DP-2, ResNet
// DP-2×PP-2) and the driver (plain Start/Wait, or Supervise). A fault is
// the one seed 7 draws for generation 0 (chaos.Crashes), with the row's
// kind. A resumed row first runs a prefix grid of Steps/2 steps, which
// checkpoints its last one, and then resumes from that set.
//
//   - A plain run with a fault fails within the kind's bound with a typed
//     *transport.PeerError: an exit's names the dead rank, a hang's the
//     straggler cause.
//   - Every other run finishes every step on Reference's digests, and the
//     replicas of each stage agree.
//   - A resumed run leaves the prefix's checkpoint files in place: a grid
//     that retrained from step 0 would have replaced them.
//   - A supervised run restarts once per fault and logs the recovery MLLOG
//     keys, its recovery wall time counted from the failure; its resume
//     step is at most one checkpoint behind the fault, because Wait lets
//     survivors land their in-flight persist. A resumed one never
//     restarts, and its first generation resumes at Steps/2.
func TestMultiProcFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test (re-execs the test binary)")
	}
	topologies := []struct {
		name      string
		spec      Spec
		straggler int64 // a hang row's StragglerMS
	}{
		{"dp2", Spec{Benchmark: "recommendation", DP: 2, Microshards: 2, Steps: 6, Seed: 11}, 500},
		// 2 s: clear of a healthy ResNet stage's wait under -race.
		{"dp2pp2", Spec{Benchmark: "image_classification", DP: 2, PP: 2, Microbatches: 4, Steps: 4, Seed: 5}, 2000},
	}
	kinds := []struct {
		name  string
		kind  chaos.Kind
		bound time.Duration // a plain run's failure surfaces within it
	}{{"none", "", 0}, {"exit", chaos.Exit, 20 * time.Second}, {"hang", chaos.Hang, 60 * time.Second}, {"resumed", "", 0}}
	refs := map[string]*ReferenceRun{}
	for _, k := range kinds {
		for _, topo := range topologies {
			for _, mode := range []string{"plain", "supervised"} {
				t.Run(k.name+"-"+topo.name+"-"+mode, func(t *testing.T) {
					spec := topo.spec
					if k.kind == chaos.Exit || mode == "supervised" {
						spec.CkptDir, spec.CkptEvery = t.TempDir(), 1
					}
					var prefix map[string]os.FileInfo
					if k.name == "resumed" {
						spec.CkptDir, spec.CkptEvery = t.TempDir(), spec.Steps/2
						prefix = runPrefix(t, spec)
						spec.Resume = true
					}
					var fault chaos.Fault
					if k.kind != "" {
						fault = chaos.Crashes(7, spec.World(), spec.Steps, 1)[0]
						fault.Kind = k.kind
						spec.Faults = []chaos.Fault{fault}
					}
					if k.kind == chaos.Hang {
						spec.StragglerMS = topo.straggler
					}
					if refs[topo.name] == nil {
						ref, err := Reference(topo.spec)
						if err != nil {
							t.Fatal(err)
						}
						refs[topo.name] = ref
					}
					if mode == "supervised" {
						checkSupervised(t, spec, fault, refs[topo.name])
						checkPrefixKept(t, spec.CkptDir, prefix)
						return
					}
					start := time.Now()
					results, err := launchSelf(t, spec).Wait()
					if k.kind == "" {
						if err != nil {
							t.Fatalf("run failed: %v", err)
						}
						checkResults(t, spec, results, refs[topo.name])
						checkPrefixKept(t, spec.CkptDir, prefix)
						return
					}
					var pe *transport.PeerError
					switch {
					case err == nil:
						t.Fatalf("Wait resolved nil with fault %+v", fault)
					case !errors.As(err, &pe):
						t.Fatalf("Wait error %v (%T); want a typed *transport.PeerError", err, err)
					case k.kind == chaos.Exit && pe.Rank != fault.Rank:
						t.Fatalf("failure %v names rank %d, but rank %d exited", err, pe.Rank, fault.Rank)
					case k.kind == chaos.Hang && !strings.Contains(err.Error(), "straggler"):
						t.Fatalf("failure %v does not name the straggler cause", err)
					case time.Since(start) > k.bound:
						t.Fatalf("%s fault surfaced after %v, want within %v", k.kind, time.Since(start), k.bound)
					}
				})
			}
		}
	}
}

// runPrefix runs the first Steps/2 steps of a resumed row's spec as a grid
// of its own, which checkpoints its last step, and returns the checkpoint
// files it left.
func runPrefix(t *testing.T, spec Spec) map[string]os.FileInfo {
	t.Helper()
	prefix := spec
	prefix.Steps = spec.Steps / 2
	if _, err := launchSelf(t, prefix).Wait(); err != nil {
		t.Fatalf("prefix grid: %v", err)
	}
	if step, ok, err := ckpt.LatestComplete(spec.CkptDir, spec.World()); err != nil || !ok || step != prefix.Steps {
		t.Fatalf("prefix grid's newest complete checkpoint set: step %d (found %v, %v), want %d", step, ok, err, prefix.Steps)
	}
	entries, err := os.ReadDir(spec.CkptDir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]os.FileInfo{}
	for _, e := range entries {
		if files[e.Name()], err = e.Info(); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// checkPrefixKept asserts that a resumed grid left the prefix's checkpoint
// files as they were. A grid that ignored Resume would have retrained from
// step 0 to the same digests, but rewritten each file on its way.
func checkPrefixKept(t *testing.T, dir string, files map[string]os.FileInfo) {
	t.Helper()
	for name, was := range files {
		if now, err := os.Stat(filepath.Join(dir, name)); err != nil || !os.SameFile(was, now) {
			t.Errorf("checkpoint %s of the prefix grid was replaced (%v): the grid retrained instead of resuming", name, err)
		}
	}
}

// checkResults asserts a completed grid run: every rank ran the spec's
// steps on the reference's digest, and the replicas of each stage agree.
func checkResults(t *testing.T, spec Spec, results []*transport.WorkerResult, ref *ReferenceRun) {
	t.Helper()
	for r, res := range results {
		if res == nil || res.Err != "" {
			t.Fatalf("rank %d result %+v", r, res)
		}
		if res.Steps != spec.Steps {
			t.Errorf("rank %d ran %d steps, want %d", r, res.Steps, spec.Steps)
		}
		if res.Digest != ref.Digests[r] {
			t.Errorf("rank %d: digest %s != reference %s", r, res.Digest, ref.Digests[r])
		}
		// Ranks k·S+s share stage s's shard.
		if s := r % spec.normalized().PP; res.Digest != results[s].Digest {
			t.Errorf("rank %d digest %s disagrees with stage %d's replica 0: %s", r, res.Digest, s, results[s].Digest)
		}
	}
}

// checkSupervised runs the spec under Supervise and asserts the recovery:
// one restart per fault, the reference's digests, the recovery MLLOG keys,
// and a resume step no more than one checkpoint behind the fault.
func checkSupervised(t *testing.T, spec Spec, fault chaos.Fault, ref *ReferenceRun) {
	t.Helper()
	log := mlog.NewLogger(io.Discard)
	res, err := Supervise(spec, SuperviseOptions{Start: selfStart(t), Log: log})
	if err != nil {
		t.Fatalf("Supervise: %v", err)
	}
	checkResults(t, spec, res.Results, ref)
	if res.Restarts != len(spec.Faults) {
		t.Errorf("supervised run restarted %d times, want %d (one per fault)", res.Restarts, len(spec.Faults))
	}
	keys := []string{mlog.KeyWorkerRestarts, mlog.KeyCheckpointStep, mlog.KeyCheckpointDigest}
	if len(spec.Faults) > 0 || spec.Resume {
		keys = append(keys, mlog.KeyResumeFromStep)
	}
	if len(spec.Faults) > 0 {
		keys = append(keys, mlog.KeyRecoveryWallMS)
	}
	for _, key := range keys {
		if mlog.Find(log.Events, key) == nil {
			t.Errorf("supervised run logged no %s", key)
		}
	}
	if ev := mlog.Find(log.Events, mlog.KeyWorkerRestarts); ev != nil && ev.Value != res.Restarts {
		t.Errorf("%s = %v, want %d", mlog.KeyWorkerRestarts, ev.Value, res.Restarts)
	}
	if ev := mlog.Find(log.Events, mlog.KeyCheckpointStep); ev != nil && ev.Value != spec.Steps {
		t.Errorf("%s = %v, want final step %d", mlog.KeyCheckpointStep, ev.Value, spec.Steps)
	}
	if ev := mlog.Find(log.Events, mlog.KeyCheckpointDigest); ev != nil {
		if d, ok := ev.Value.(string); !ok || len(d) != 16 {
			t.Errorf("%s = %v, want a 16-hex content digest", mlog.KeyCheckpointDigest, ev.Value)
		}
	}
	// The faulted rank has its checkpoint for fault.Step-CkptEvery on disk
	// (each Write waits for the one before), and every survivor lands its
	// persists before it exits, so the newest complete set is no older. A
	// resumed run's first generation resumes where its prefix stopped.
	lo, hi := fault.Step-spec.CkptEvery, spec.Steps-1
	if spec.Resume {
		lo, hi = spec.Steps/2, spec.Steps/2
	}
	if ev := mlog.Find(log.Events, mlog.KeyResumeFromStep); ev != nil {
		if step, ok := ev.Value.(int); !ok || step < lo || step > hi {
			t.Errorf("%s = %v, want a step in [%d, %d]", mlog.KeyResumeFromStep, ev.Value, lo, hi)
		}
	}
	// Recovery counts from the failure, so it holds the restart backoff
	// and, after a hang, the grace the hung rank waits out before its kill.
	if ev := mlog.Find(log.Events, mlog.KeyRecoveryWallMS); ev != nil {
		least := restartBackoff
		if fault.Kind == chaos.Hang {
			least += exitGrace
		}
		if ms, ok := ev.Value.(int64); !ok || ms < least.Milliseconds() {
			t.Errorf("%s = %v, want at least %d", mlog.KeyRecoveryWallMS, ev.Value, least.Milliseconds())
		}
	}
}

// waitCheckpointSet blocks until the spec's grid has written its first
// complete checkpoint set.
func waitCheckpointSet(t *testing.T, spec Spec) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		if _, ok, err := ckpt.LatestComplete(spec.CkptDir, spec.World()); err != nil {
			t.Fatal(err)
		} else if ok {
			return
		}
		select {
		case <-deadline:
			t.Fatal("workers never sealed a complete checkpoint set")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestMultiProcCoordinatorDeath closes the coordinator under a running
// grid: each worker's session loses its control link and fails its own
// mesh, so every worker process exits instead of training on unwatched.
func TestMultiProcCoordinatorDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test (re-execs the test binary)")
	}
	spec := Spec{
		Benchmark: "recommendation",
		DP:        2, Microshards: 2,
		Steps:   100000, // far more than can run in the test's bound
		Seed:    1,
		CkptDir: t.TempDir(), CkptEvery: 5,
	}
	c := launchSelf(t, spec)
	waitCheckpointSet(t, spec)
	c.coord.Close()

	exited := make(chan struct{})
	go func() { c.reap(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		c.killAll()
		<-exited
		t.Fatal("workers kept running after their coordinator died")
	}
}

// TestReferenceNoGoroutineLeak audits the in-process grid teardown: a full
// build/step/close cycle across both engine kinds leaves no goroutines.
func TestReferenceNoGoroutineLeak(t *testing.T) {
	check := leakcheck.Check(t)
	if _, err := Reference(Spec{Benchmark: "recommendation", DP: 2, Microshards: 2, Steps: 2, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := Reference(Spec{Benchmark: "image_classification", DP: 1, PP: 2, Microbatches: 2, Steps: 1, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	check()
}

// TestEngineTeardownAfterPeerDeath: when a peer dies mid-run, the
// survivor's engine must fail sticky and tear down without stranding
// goroutines — the Close-after-failure audit.
func TestEngineTeardownAfterPeerDeath(t *testing.T) {
	check := leakcheck.Check(t)
	spec := Spec{Benchmark: "recommendation", DP: 2, Microshards: 2, Steps: 4, Seed: 9}
	fab := transport.NewLocalFabric(2, nil)

	engines := make([]Engine, 2)
	for r := range engines {
		eng, err := Build(spec, fab.Endpoint(r), r)
		if err != nil {
			t.Fatal(err)
		}
		engines[r] = eng
	}
	// One synchronized step so the ring is live.
	var wg sync.WaitGroup
	for _, eng := range engines {
		wg.Add(1)
		go func(eng Engine) { defer wg.Done(); eng.StepNext() }(eng)
	}
	wg.Wait()
	for r, eng := range engines {
		if err := eng.Err(); err != nil {
			t.Fatalf("rank %d failed on a healthy step: %v", r, err)
		}
	}

	// Rank 1 dies. Rank 0's next all-reduce must fail typed, not hang.
	boom := errors.New("injected peer death")
	fab.Endpoint(0).Fail(1, boom)
	engines[0].StepNext()
	err := engines[0].Err()
	var pe *transport.PeerError
	if !errors.As(err, &pe) || pe.Rank != 1 {
		t.Fatalf("survivor error %v; want *transport.PeerError{Rank: 1}", err)
	}

	for _, eng := range engines {
		eng.Close()
	}
	fab.Endpoint(0).Close()
	check()
}
