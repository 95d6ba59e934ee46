package grid

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/datasets"
	"repro/internal/leakcheck"
	"repro/internal/models"
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
		{"hang rank outside world", Spec{Benchmark: "recommendation", DP: 2, HangAfter: 1, HangRank: 5, StragglerMS: 100}, false},
		{"hang without straggler bound", Spec{Benchmark: "recommendation", DP: 2, HangAfter: 1, HangRank: 1}, false},
	} {
		err := tc.spec.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if w := (Spec{Benchmark: "x", DP: 3, PP: 2}).World(); w != 6 {
		t.Errorf("World = %d, want 6", w)
	}
}

// Bad topologies come back as errors. The PP: 64 rows ask the partitioner
// for more stages than the model has splittable units; that used to panic
// inside the stage factory, killing a worker launched with an over-deep
// -pp with a stack trace.
func TestBuildRejectsUnsupportedTopologies(t *testing.T) {
	for _, spec := range []Spec{
		{Benchmark: "recommendation", DP: 1, PP: 2},
		{Benchmark: "mystery", DP: 1},
		{Benchmark: "image_classification", PP: 64},
		{Benchmark: "translation_transformer", PP: 64},
	} {
		if _, err := Build(spec, nil, 0); err == nil {
			t.Errorf("Build(%+v) succeeded; want error", spec)
		}
	}
}

// launchSelf starts the spec's grid re-executing this test binary.
func launchSelf(t *testing.T, spec Spec, opts StartOptions) *Cluster {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	opts.Command = []string{exe}
	opts.Stderr = os.Stderr
	c, err := Start(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// serialDigest runs the serial (one-worker, one-stage) baseline and returns its
// trajectory digest plus final parameter values by name — the PR 4 oracle
// the multi-process runs must reproduce.
func serialDigest(t *testing.T, microshards, globalBatch, steps int, seed uint64) (string, map[string][]float64) {
	t.Helper()
	ds := datasets.GenerateRec(datasets.DefaultRecConfig())
	eng, err := pipeline.New(pipeline.Config{
		Endpoint: transport.Endpoint{Workers: 1},
		Stages:   1, Microbatches: microshards,
		GlobalBatch: globalBatch, DatasetN: len(ds.Train), Seed: seed,
	}, func(worker int) []pipeline.StageReplica {
		m := models.NewRecommendation(ds, models.DefaultNCFHParams(), seed)
		return pipeline.Whole(m, m.Opt)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dig := NewDigest()
	for i := 0; i < steps; i++ {
		eng.StepNext()
		if err := eng.Err(); err != nil {
			t.Fatal(err)
		}
		dig.Add(eng.Params())
	}
	final := map[string][]float64{}
	for _, p := range eng.Params() {
		final[p.Name] = append([]float64(nil), p.Value.Data...)
	}
	return dig.Sum(), final
}

// TestMultiProcDP2BitIdentical is the backend-equivalence acceptance for
// pure data parallelism: a 2-process DP run over loopback TCP must produce
// the same parameter trajectory as the in-process channel fabric AND the
// serial one-worker baseline.
func TestMultiProcDP2BitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test (re-execs the test binary)")
	}
	spec := Spec{
		Benchmark: "recommendation",
		DP:        2, Microshards: 4,
		Steps: 3, Seed: 11,
	}

	ref, err := Reference(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := launchSelf(t, spec, StartOptions{})
	results, err := c.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}

	batch, err := DefaultBatch(spec.Benchmark, "v0.5")
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := serialDigest(t, spec.Microshards, batch, spec.Steps, spec.Seed)

	for r, res := range results {
		if res == nil || res.Err != "" {
			t.Fatalf("rank %d result %+v", r, res)
		}
		if res.Digest != ref.Digests[r] {
			t.Errorf("rank %d: tcp digest %s != reference %s", r, res.Digest, ref.Digests[r])
		}
		if res.Digest != serial {
			t.Errorf("rank %d: tcp digest %s != serial baseline %s", r, res.Digest, serial)
		}
		if res.Steps != spec.Steps {
			t.Errorf("rank %d ran %d steps, want %d", r, res.Steps, spec.Steps)
		}
	}
}

// TestMultiProcDP2PP2BitIdentical is the hybrid-grid acceptance: a 2×2 grid
// (4 OS processes) over loopback TCP matches the in-process reference rank
// for rank.
func TestMultiProcDP2PP2BitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test (re-execs the test binary)")
	}
	spec := Spec{
		Benchmark: "image_classification",
		DP:        2, PP: 2, Microbatches: 4,
		Steps: 2, Seed: 5,
	}

	ref, err := Reference(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := launchSelf(t, spec, StartOptions{})
	results, err := c.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	for r, res := range results {
		if res == nil || res.Err != "" {
			t.Fatalf("rank %d result %+v", r, res)
		}
		if res.Digest != ref.Digests[r] {
			t.Errorf("rank %d: tcp digest %s != reference %s", r, res.Digest, ref.Digests[r])
		}
	}
	// Replicas of the same stage host the same shard: digests must agree
	// across the data-parallel axis (ranks k·S+s share s).
	if results[0].Digest != results[2].Digest || results[1].Digest != results[3].Digest {
		t.Errorf("stage digests disagree across replicas: %s/%s vs %s/%s",
			results[0].Digest, results[2].Digest, results[1].Digest, results[3].Digest)
	}
}

// TestMultiProcWorkerKillDetected kills one worker process mid-run: the
// launcher's Wait must resolve within the heartbeat window with a typed
// *transport.PeerError, not hang.
func TestMultiProcWorkerKillDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test (re-execs the test binary)")
	}
	spec := Spec{
		Benchmark: "recommendation",
		DP:        2, Microshards: 2,
		Steps:   100000, // far more than can run before the kill
		Seed:    1,
		CkptDir: t.TempDir(), CkptEvery: 5,
	}
	c := launchSelf(t, spec, StartOptions{
		Coordinator: transport.CoordinatorConfig{
			HeartbeatInterval: 50 * time.Millisecond,
			HeartbeatWindow:   time.Second,
		},
	})

	// The run is underway once every rank has sealed a checkpoint.
	waitCheckpointSet(t, spec)
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		results []*transport.WorkerResult
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := c.Wait()
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err == nil {
			t.Fatal("Wait resolved nil after a worker was killed")
		}
		var pe *transport.PeerError
		if !errors.As(o.err, &pe) {
			t.Fatalf("Wait error %v (%T); want a typed *transport.PeerError", o.err, o.err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("worker kill not detected: Wait hung past the heartbeat window")
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
	c := launchSelf(t, spec, StartOptions{})
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

// TestMultiProcStragglerDetected hangs one worker between steps (heartbeats
// keep flowing, so only the mesh's straggler bound can catch it): the run
// must fail with the straggler cause instead of deadlocking.
func TestMultiProcStragglerDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test (re-execs the test binary)")
	}
	spec := Spec{
		Benchmark: "recommendation",
		DP:        2, Microshards: 2,
		Steps: 50, Seed: 1,
		StragglerMS: 500,
		HangAfter:   2, HangRank: 1,
	}
	c := launchSelf(t, spec, StartOptions{})

	type outcome struct{ err error }
	done := make(chan outcome, 1)
	go func() {
		_, err := c.Wait()
		done <- outcome{err}
	}()
	select {
	case o := <-done:
		if o.err == nil {
			t.Fatal("Wait resolved nil with a hung worker")
		}
		if !strings.Contains(o.err.Error(), "straggler") {
			t.Fatalf("failure %v does not name the straggler cause", o.err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("straggler not detected: Wait hung")
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
