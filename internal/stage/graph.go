package stage

import (
	"fmt"
	"strings"
	"sync"
)

// Member is the non-generic face of a Stage[T], letting a Graph own
// stages of heterogeneous item types.
type Member interface {
	Name() string
	Stop()
	Depth() int
	Stats() Stats
}

// Graph owns an ordered set of stages. The order stages are added is the
// request flow order: Stop drains front to back, so every upstream stage
// finishes (and stops producing) before its downstream stages close.
type Graph struct {
	mu       sync.Mutex
	stages   []Member
	stopOnce sync.Once
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{}
}

// Add appends stages in flow order. It panics on a duplicate name.
func (g *Graph) Add(members ...Member) *Graph {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range members {
		for _, have := range g.stages {
			if have.Name() == m.Name() {
				panic(fmt.Sprintf("stage: duplicate stage %q", m.Name()))
			}
		}
		g.stages = append(g.stages, m)
	}
	return g
}

// Stop drains the graph in flow order: each stage refuses new callers
// and waits for its slot holders and its line before the next stage is
// stopped, so in-flight work completes its remaining downstream hops.
// Idempotent: a second call returns once the first has drained every
// stage.
func (g *Graph) Stop() {
	g.stopOnce.Do(func() {
		g.mu.Lock()
		stages := g.stages
		g.mu.Unlock()
		for _, m := range stages {
			m.Stop()
		}
	})
}

// Stats snapshots every stage in flow order.
func (g *Graph) Stats() []Stats {
	g.mu.Lock()
	stages := g.stages
	g.mu.Unlock()
	out := make([]Stats, len(stages))
	for i, m := range stages {
		out[i] = m.Stats()
	}
	return out
}

// String renders the topology, e.g. "header:8 -> static:16 -> ...".
func (g *Graph) String() string {
	g.mu.Lock()
	stages := g.stages
	g.mu.Unlock()
	parts := make([]string, len(stages))
	for i, m := range stages {
		st := m.Stats()
		parts[i] = fmt.Sprintf("%s:%d", st.Name, st.Workers)
	}
	return strings.Join(parts, " -> ")
}
