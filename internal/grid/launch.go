package grid

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"

	"repro/internal/transport"
)

// StartOptions parameterizes Start.
type StartOptions struct {
	// Command is the worker argv. Required; typically the current binary
	// (os.Executable()) — WorkerMain is selected by environment, not args.
	Command []string
	// Stdout and Stderr receive the workers' combined output (default
	// discard).
	Stdout, Stderr io.Writer
	// Coordinator tunes the rendezvous (heartbeat cadence and window, join
	// timeout). World is overridden with the spec's.
	Coordinator transport.CoordinatorConfig
}

// Cluster is a running multi-process grid: the rendezvous coordinator plus
// the spec's World() worker processes.
type Cluster struct {
	coord *transport.Coordinator
	procs []*exec.Cmd
}

// Start launches the spec as one OS process per grid cell, with an
// in-process rendezvous coordinator the workers join. Each worker inherits
// this process's environment plus the grid variables of its rank. Wait
// collects the results.
func Start(spec Spec, opts StartOptions) (*Cluster, error) {
	spec = spec.normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(opts.Command) == 0 {
		return nil, fmt.Errorf("grid: StartOptions.Command is empty")
	}
	blob, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("grid: encode spec: %w", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("grid: coordinator listen: %w", err)
	}
	ccfg := opts.Coordinator
	ccfg.World = spec.World()
	coord, err := transport.NewCoordinator(ln, ccfg)
	if err != nil {
		ln.Close()
		return nil, err
	}

	c := &Cluster{coord: coord}
	for rank := 0; rank < spec.World(); rank++ {
		cmd := exec.Command(opts.Command[0], opts.Command[1:]...)
		cmd.Env = append(os.Environ(),
			EnvSpec+"="+string(blob),
			EnvCoord+"="+coord.Addr(),
			EnvRank+"="+strconv.Itoa(rank),
		)
		cmd.Stdout = opts.Stdout
		cmd.Stderr = opts.Stderr
		if err := cmd.Start(); err != nil {
			c.Close()
			return nil, fmt.Errorf("grid: start rank %d: %w", rank, err)
		}
		c.procs = append(c.procs, cmd)
	}
	return c, nil
}

// Kill hard-kills one worker process (failure injection for tests). The
// coordinator notices through the dropped control connection or missed
// heartbeats and declares the rank down.
func (c *Cluster) Kill(rank int) error {
	if rank < 0 || rank >= len(c.procs) {
		return fmt.Errorf("grid: kill rank %d outside world %d", rank, len(c.procs))
	}
	return c.procs[rank].Process.Kill()
}

// Wait blocks until every worker reports or one fails, then tears the
// cluster down and returns the per-rank results. On failure the survivors
// are killed — their engines are poisoned by the dead peer anyway — and the
// typed cause (usually a *transport.PeerError) is returned.
func (c *Cluster) Wait() ([]*transport.WorkerResult, error) {
	results, err := c.coord.Wait()
	if err != nil {
		c.killAll()
	}
	c.reap()
	c.coord.Close()
	return results, err
}

// Close kills any still-running workers and shuts the coordinator down.
// Redundant after Wait; deferred by callers for early-error paths.
func (c *Cluster) Close() {
	c.killAll()
	c.reap()
	c.coord.Close()
}

func (c *Cluster) killAll() {
	for _, p := range c.procs {
		if p.Process != nil {
			p.Process.Kill()
		}
	}
}

// reap waits on every child so none linger as zombies. Exit errors are
// deliberate noise: the interesting failure already surfaced through the
// coordinator as a typed error.
func (c *Cluster) reap() {
	for _, p := range c.procs {
		p.Wait()
	}
}
