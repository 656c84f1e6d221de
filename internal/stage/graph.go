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
	mu      sync.Mutex
	stages  []Member
	byName  map[string]Member
	started bool
	stopped bool
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{byName: make(map[string]Member, 8)}
}

// Add appends stages in flow order. It panics on a duplicate name or
// after Start.
func (g *Graph) Add(members ...Member) *Graph {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.started {
		panic("stage: Add after Start")
	}
	for _, m := range members {
		if _, dup := g.byName[m.Name()]; dup {
			panic(fmt.Sprintf("stage: duplicate stage %q", m.Name()))
		}
		g.byName[m.Name()] = m
		g.stages = append(g.stages, m)
	}
	return g
}

// Start fixes the topology: Add after Start panics, as does a second
// Start. Stages take callers from New, so nothing is launched.
func (g *Graph) Start() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.started {
		panic("stage: graph started twice")
	}
	g.started = true
}

// Stop drains the graph in flow order: each stage refuses new callers
// and waits for its slot holders and its line before the next stage is
// stopped, so in-flight work completes its remaining downstream hops.
// Idempotent.
func (g *Graph) Stop() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.stopped = true
	stages := g.stages
	g.mu.Unlock()
	for _, m := range stages {
		m.Stop()
	}
}

// Stage looks a member up by name.
func (g *Graph) Stage(name string) (Member, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, ok := g.byName[name]
	return m, ok
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

// Depths reports every stage's queue depth keyed by stage name — the
// QueueLens view the harness samples.
func (g *Graph) Depths() map[string]int {
	g.mu.Lock()
	stages := g.stages
	g.mu.Unlock()
	out := make(map[string]int, len(stages))
	for _, m := range stages {
		out[m.Name()] = m.Depth()
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
