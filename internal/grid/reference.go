package grid

import (
	"fmt"
	"sync"

	"repro/internal/arena"
	"repro/internal/transport"
)

// ReferenceRun is the in-process rendition of a Spec: the digests a
// multi-process run of the same spec must reproduce bit-for-bit.
type ReferenceRun struct {
	// Digests[r] is rank r's parameter-trajectory digest (see Digest).
	Digests []string
}

// Reference runs the spec's whole grid in ONE process over the channel
// fabric, one goroutine per rank, mirroring WorkerMain's step loop. Because
// every Mesh backend copies float64 bits, the TCP run and this run see
// identical traffic — their digests must match exactly.
func Reference(spec Spec) (*ReferenceRun, error) {
	spec = spec.normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	world := spec.World()
	pool := arena.New()
	fab := transport.NewLocalFabric(world, pool)

	engines := make([]Engine, world)
	for r := 0; r < world; r++ {
		eng, err := Build(spec, fab.Endpoint(r), r)
		if err != nil {
			for _, e := range engines[:r] {
				e.Close()
			}
			return nil, err
		}
		engines[r] = eng
	}
	// Engines never close injected meshes; the fabric endpoints are ours to
	// close after every engine is done with them.
	defer func() {
		for r := 0; r < world; r++ {
			fab.Endpoint(r).Close()
		}
	}()

	run := &ReferenceRun{Digests: make([]string, world)}
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			eng := engines[r]
			dig := NewDigest()
			for i := 0; i < spec.Steps; i++ {
				eng.StepNext()
				if err := eng.Err(); err != nil {
					errs[r] = err
					return
				}
				dig.Add(eng.Params())
			}
			run.Digests[r] = dig.Sum()
		}(r)
	}
	wg.Wait()
	for r := 0; r < world; r++ {
		engines[r].Close()
	}
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("grid: reference rank %d: %w", r, err)
		}
	}
	return run, nil
}
