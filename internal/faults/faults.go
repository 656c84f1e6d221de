// Package faults makes failure a first-class experiment input,
// mirroring the load profiles of internal/workload on the dependability
// side: a Plan builds a StepInjector from an environment (the
// database tiers and cluster balancer under test, a clock, a timescale,
// generic settings), and a fixed table maps names to plans.
//
// The experiment layers above — internal/harness, cmd/experiments —
// never switch on a failure shape. They look a plan name up via the
// faults= setting, build it against the running system, start it when
// the measurement window opens, and sample its fault.injected probe
// next to every other series. The plans (replica-kill, shard-down,
// slow-backend, conn-drop, leak) are in builtin.go; a new failure
// scenario is one more entry in its table.
//
// Every schedule runs on the injected clock.Clock at paper-time
// offsets, so a plan replays deterministically under clock.Manual:
// the same plan advanced over the same schedule injects the same
// actions at the same paper timestamps, every time.
package faults

import (
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/cluster"
	"stagedweb/internal/dbtier"
	"stagedweb/internal/variant"
)

// ProbeInjected counts fault-plan actions executed so far — kills,
// restarts, slowdowns, connection drops, leaks. The "fault." prefix is
// reserved for injector probes.
const ProbeInjected = "fault.injected"

// Targets is the running system a plan injects faults into.
type Targets struct {
	// Tiers are the database tiers under test, one per shard (a
	// single-instance run has exactly one).
	Tiers []*dbtier.Tier
	// Balancer is the cluster front end, nil when the run is not
	// sharded. Plans that need it (shard-down, conn-drop) fail to
	// build without it.
	Balancer *cluster.Balancer
}

// Env is everything a Plan needs to build an injector.
type Env struct {
	// Clock schedules every injection; the harness injects its
	// experiment clock, tests inject clock.Manual. Nil means
	// clock.Real.
	Clock clock.Clock
	// Scale converts the plan's paper-time offsets to wall time.
	Scale clock.Timescale
	// Targets is the system under test.
	Targets Targets
	// Set holds the plan settings (the faultset= value). A key the plan
	// does not understand is a build error — typos must not pass
	// silently.
	Set variant.Settings
}

// clk returns the environment's clock, defaulting to the runtime clock.
func (e Env) clk() clock.Clock {
	if e.Clock != nil {
		return e.Clock
	}
	return clock.Real{}
}

// Event is one executed injection: its nominal paper-time offset from
// Start and a human-readable action. Offsets are schedule-nominal, not
// measured, so a replayed plan reports identical events.
type Event struct {
	At     time.Duration `json:"at_ns"`
	Action string        `json:"action"`
}

// Plan validates settings against the running system and returns an
// unstarted injector.
type Plan func(Env) (*StepInjector, error)

// Build runs the plan's build function.
func (p Plan) Build(env Env) (*StepInjector, error) { return p(env) }

// Lookup finds a plan by name.
func Lookup(name string) (Plan, bool) {
	p, ok := plans[name]
	return p, ok
}

// Names lists the plan names, sorted.
func Names() []string { return slices.Sorted(maps.Keys(plans)) }

// step is one scheduled injection: fire at paper offset at, then — when
// repeat is positive — again every repeat until stopped.
type step struct {
	at     time.Duration
	repeat time.Duration
	action string
	run    func()
}

// StepInjector executes a schedule of steps on the environment's
// clock. Each step gets its own goroutine, so a long-delay step never
// holds up an earlier one; all delays are nominal paper offsets
// converted through the timescale, which is what makes replays
// deterministic under clock.Manual. It is the scaffolding every plan
// is made of.
type StepInjector struct {
	clk   clock.Clock
	scale clock.Timescale
	steps []step

	started  sync.Once
	stopped  sync.Once
	done     chan struct{}
	wg       sync.WaitGroup
	injected atomic.Int64

	evMu   sync.Mutex
	events []Event
}

// NewInjector returns an empty step-scheduling injector for env.
func NewInjector(env Env) *StepInjector {
	scale := env.Scale
	if scale <= 0 {
		scale = clock.RealTime
	}
	return &StepInjector{
		clk:   env.clk(),
		scale: scale,
		done:  make(chan struct{}),
	}
}

// Add schedules a step: at the paper-time offset, run the action
// (recorded under the given label in Events), then again every repeat
// while the injector runs; a zero repeat makes it one-shot.
func (in *StepInjector) Add(at, repeat time.Duration, action string, run func()) {
	in.steps = append(in.steps, step{at: at, repeat: repeat, action: action, run: run})
}

// Start arms the schedule: offsets count from here. It does not block
// and is idempotent.
func (in *StepInjector) Start() {
	in.started.Do(func() {
		for _, s := range in.steps {
			s := s
			in.wg.Add(1)
			go in.runStep(s)
		}
	})
}

// Stop cancels pending injections and waits for in-flight ones.
// Idempotent.
func (in *StepInjector) Stop() {
	in.stopped.Do(func() {
		close(in.done)
		in.wg.Wait()
	})
}

func (in *StepInjector) runStep(s step) {
	defer in.wg.Done()
	at, wait := s.at, s.at
	for {
		select {
		case <-in.done:
			return
		case <-in.clk.After(in.scale.Wall(wait)):
		}
		s.run()
		in.injected.Add(1)
		in.evMu.Lock()
		in.events = append(in.events, Event{At: at, Action: s.action})
		in.evMu.Unlock()
		if s.repeat <= 0 {
			return
		}
		at += s.repeat
		wait = s.repeat
	}
}

// Probes lists the fault.* gauges this injector exports.
func (in *StepInjector) Probes() []variant.Probe {
	return []variant.Probe{
		{Name: ProbeInjected, Gauge: func() float64 { return float64(in.injected.Load()) }},
	}
}

// Events lists the injections executed so far, in schedule order.
func (in *StepInjector) Events() []Event {
	in.evMu.Lock()
	defer in.evMu.Unlock()
	out := make([]Event, len(in.events))
	copy(out, in.events)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Action < out[j].Action
	})
	return out
}
