// Package dist is two names the frozen benchmark driver (bench/, which no
// PR since the engines merged may edit) compiles against. Data-parallel
// training is the one-stage column of internal/pipeline, built like every
// other engine through core.NewEngine; nothing else imports this package,
// and the PR allowed to touch bench/ deletes it.
package dist

import (
	"repro/internal/arena"
	"repro/internal/pipeline"
	"repro/internal/transport"
)

// Engine is the type bench/wl_steps.go switches on beside *pipeline.Engine.
// Nothing constructs one.
type Engine struct{ *pipeline.Engine }

// NewRingOver forwards to transport.NewRingOver (bench/probes.go).
func NewRingOver(eps []transport.Mesh, chunks, flatLen int, buffers *arena.Arena) *transport.Ring {
	return transport.NewRingOver(eps, chunks, flatLen, buffers)
}
