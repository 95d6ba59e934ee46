package grid

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"repro/internal/chaos"
	"repro/internal/ckpt"
	"repro/internal/clock"
	"repro/internal/transport"
)

// Meta keys carrying the trajectory-digest accumulator inside a worker's
// checkpoint, so a resumed generation continues the exact rolling hash of
// the uninterrupted run.
const (
	metaDigestHash  = "digest_h"
	metaDigestSteps = "digest_n"
)

// faultExit is the worker's exit code for an injected chaos.Exit fault.
const faultExit = 3

// Worker reports whether this process was launched as a grid worker
// (EnvCoord set by Start). cmd/mlperf-worker and test binaries branch on
// it from main/TestMain before any flag parsing.
func Worker() bool {
	return os.Getenv(EnvCoord) != ""
}

// WorkerMain runs one grid cell to completion: join the rendezvous, dial
// the TCP mesh, build the shard-mode engine, step the spec's budget while
// digesting the parameter trajectory, and report the result. It is the
// whole body of a worker process; the caller exits on the returned error.
func WorkerMain() (err error) {
	var spec Spec
	if err := json.Unmarshal([]byte(os.Getenv(EnvSpec)), &spec); err != nil {
		return fmt.Errorf("grid: bad %s: %w", EnvSpec, err)
	}
	spec = spec.normalized()
	rank, err := strconv.Atoi(os.Getenv(EnvRank))
	if err != nil {
		return fmt.Errorf("grid: bad %s: %w", EnvRank, err)
	}

	// Bind the mesh listener first so the advertised address is live before
	// any peer learns it from the rendezvous table.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("grid: mesh listen: %w", err)
	}
	defer ln.Close()

	sess, err := transport.Join(transport.SessionConfig{
		Coordinator: os.Getenv(EnvCoord),
		Rank:        rank,
		Addr:        ln.Addr().String(),
	})
	if err != nil {
		return err
	}
	defer sess.Close()

	// From here on a failure this rank detected itself is reported to the
	// coordinator with its reason (and the steps taken, once there is an
	// engine), so the launcher prints why the run died. A rank that only
	// saw a peer go reports nothing: the coordinator names the dead rank
	// from its control connection, and this rank holds its own open until
	// that verdict is in. The final report's own error is returned without
	// being re-reported.
	var (
		mesh     *transport.TCPMesh
		eng      Engine
		reported bool
	)
	defer func() {
		switch {
		case err == nil || reported:
		case detected(err, sess.Rank):
			res := transport.WorkerResult{Rank: sess.Rank, Err: err.Error()}
			if eng != nil {
				res.Steps = eng.Steps()
			}
			sess.Report(res)
		default:
			sess.AwaitVerdict()
		}
		if eng != nil {
			eng.Close()
		}
		if mesh != nil {
			mesh.Close()
		}
	}()

	if sess.World != spec.World() {
		return fmt.Errorf("grid: rendezvous world %d != spec grid %d×%d", sess.World, spec.DP, spec.PP)
	}

	mesh, err = transport.DialTCPMesh(transport.TCPConfig{
		Rank:     sess.Rank,
		Addrs:    sess.Addrs,
		Listener: ln,
		Opts: transport.TCPOptions{
			Straggler: time.Duration(spec.StragglerMS) * time.Millisecond,
		},
	})
	if err != nil {
		return err
	}
	// Coordinator-announced deaths (missed heartbeats, dropped control
	// connections) poison the mesh so blocked Recvs fail typed, not hang;
	// a lost coordinator closes it, so an orphaned worker stops stepping.
	sess.OnPeerDown(mesh.Fail)

	if eng, err = Build(spec, mesh, sess.Rank); err != nil {
		return err
	}

	var ckptW *ckpt.Writer
	if spec.CkptDir != "" {
		if ckptW, err = ckpt.NewWriter(spec.CkptDir, 0); err != nil {
			return err
		}
		defer ckptW.Flush() // an error return leaves no persist half done
	}
	dig := NewDigest()
	if spec.Resume {
		// Every rank resolves the SAME newest complete step (the files are
		// on a shared filesystem and LatestComplete is deterministic), so
		// the grid resumes in lockstep or not at all.
		if err := resumeWorker(spec, eng, dig, sess.Rank); err != nil {
			return err
		}
	}

	// Everyone finishes building (and restoring) before anyone steps: a
	// fast worker's first Send must not race a slow worker's construction.
	if err := sess.Barrier(); err != nil {
		return err
	}

	clk := clock.NewReal()
	var loss float64
	startSteps := eng.Steps()
	start := clk.Now()
	for eng.Steps() < spec.Steps {
		switch chaos.Due(spec.Faults, spec.Gen, sess.Rank, eng.Steps()) {
		case chaos.Exit:
			// No report, no teardown, no checkpoint flush: the coordinator
			// notices the dropped control connection.
			os.Exit(faultExit)
		case chaos.Hang:
			// Heartbeats go on; only the peers' straggler bound notices.
			select {}
		}
		loss = eng.StepNext()
		if err := eng.Err(); err != nil {
			return err
		}
		dig.Add(eng.Params())
		if ckptW != nil && spec.CkptEvery > 0 && eng.Steps()%spec.CkptEvery == 0 {
			if err := checkpointWorker(ckptW, eng, dig, sess.Rank); err != nil {
				return err
			}
		}
	}
	elapsed := clk.Now() - start
	stepsRun := max(eng.Steps()-startSteps, 1)
	// The last checkpoint is on disk before any rank passes the drain
	// barrier, so a supervisor that sees the grid finish finds it.
	if ckptW != nil {
		if err := ckptW.Flush(); err != nil {
			return err
		}
	}

	// Drain before teardown: closing the mesh drops queued frames, so every
	// worker must pass this barrier (all sends consumed) before any Close.
	if err := sess.Barrier(); err != nil {
		return err
	}

	reported = true
	return sess.Report(transport.WorkerResult{
		Rank:        sess.Rank,
		Steps:       eng.Steps(),
		Digest:      dig.Sum(),
		Loss:        loss,
		StepSeconds: elapsed.Seconds() / float64(stepsRun),
		FlatBytes:   eng.FlatSize() * 8,
	})
}

// detected reports whether err is a fault that rank found itself: a
// straggler bound, a corrupt or malformed frame, or any error that is not
// a *transport.PeerError naming another rank. Such a PeerError with any
// other cause means that rank has gone, which the coordinator sees first
// hand.
func detected(err error, rank int) bool {
	var pe *transport.PeerError
	if !errors.As(err, &pe) || pe.Rank == rank {
		return true
	}
	for _, cause := range []error{transport.ErrStraggler, transport.ErrChecksum, transport.ErrBadFrame, transport.ErrFrameTooLarge} {
		if errors.Is(err, cause) {
			return true
		}
	}
	return false
}

// checkpointWorker writes the rank's sealed checkpoint for the engine's
// current step, with the trajectory-digest accumulator riding along in the
// meta section.
func checkpointWorker(w *ckpt.Writer, eng Engine, dig *Digest, rank int) error {
	st := eng.CaptureTrainState()
	h, n := dig.State()
	st.SetMeta(metaDigestHash, fmt.Sprintf("%016x", h))
	st.SetMeta(metaDigestSteps, strconv.Itoa(n))
	_, _, err := w.Write(st, rank)
	return err
}

// resumeWorker restores the engine and digest from the newest checkpoint
// step for which EVERY rank has a valid sealed file. A directory with no
// complete set leaves the fresh engine untouched.
func resumeWorker(spec Spec, eng Engine, dig *Digest, rank int) error {
	step, ok, err := ckpt.LatestComplete(spec.CkptDir, spec.World())
	if err != nil {
		return fmt.Errorf("grid: resume scan %s: %w", spec.CkptDir, err)
	}
	if !ok {
		return nil
	}
	st, err := ckpt.LoadAt(spec.CkptDir, step, rank)
	if err != nil {
		return fmt.Errorf("grid: resume rank %d at step %d: %w", rank, step, err)
	}
	if err := eng.RestoreTrainState(st); err != nil {
		return fmt.Errorf("grid: resume rank %d at step %d: %w", rank, step, err)
	}
	hs, ok1 := st.MetaValue(metaDigestHash)
	ns, ok2 := st.MetaValue(metaDigestSteps)
	if !ok1 || !ok2 {
		return fmt.Errorf("grid: checkpoint step %d rank %d carries no digest accumulator", step, rank)
	}
	var h uint64
	if _, err := fmt.Sscanf(hs, "%016x", &h); err != nil {
		return fmt.Errorf("grid: checkpoint digest meta %q: %w", hs, err)
	}
	n, err := strconv.Atoi(ns)
	if err != nil {
		return fmt.Errorf("grid: checkpoint digest meta %q: %w", ns, err)
	}
	dig.SetState(h, n)
	return nil
}
