// Package load makes offered load a first-class value, mirroring
// internal/variant on the client side: a Profile is a named recipe that
// builds a running load Driver from an environment (server address,
// timescale, page mix, population bounds, generic settings), and a
// process-wide registry maps names to recipes.
//
// The experiment layers above — internal/harness, cmd/experiments —
// never switch on a workload shape. They look a profile name up, build
// it, start it, and sample its Probes into client.* time series exactly
// as they sample server variants' probes. The built-in profiles
// (steady, step, ramp, spike, wave, open-loop) are registered in
// builtin.go; a new scenario shape is one Register call and is
// immediately runnable, sweepable, and plottable everywhere.
package load

import (
	"stagedweb/internal/clock"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
	"stagedweb/internal/workload"
)

// Probe names every Driver exports. The "client." prefix is reserved
// for driver probes, next to the server-side "queue."/"sched." families.
const (
	// ProbeActive is the live EB count (closed-loop fleet plus open-loop
	// sessions) — the instantaneous offered population.
	ProbeActive = "client.active"
	// ProbeOffered is the number of interactions begun since the
	// previous sample; at the harness's one-sample-per-paper-second
	// cadence it reads as offered load in interactions per paper second.
	ProbeOffered = "client.offered"
	// ProbeErrors is the cumulative failed-interaction count.
	ProbeErrors = "client.errors"
	// ProbeWIRT is the mean client-side web interaction response time,
	// in paper seconds, of interactions completed since the previous
	// sample (zero when none completed).
	ProbeWIRT = "client.wirt"
)

// Env is everything a Profile needs to build a Driver.
type Env struct {
	// Addr is the server address under load ("127.0.0.1:port").
	Addr string
	// Scale compresses paper-time schedules, think times, and arrival
	// gaps into wall time.
	Scale clock.Timescale
	// Mix is the page distribution; nil selects the browsing mix.
	Mix *tpcw.Mix
	// Customers and Items bound generated request parameters.
	Customers, Items int
	// FetchImages and ThinkExponential configure the EBs as in
	// workload.Config.
	FetchImages      bool
	ThinkExponential bool
	// Seed makes the fleet and arrival process deterministic.
	Seed int64
	// Clock paces population schedules, arrival gaps, think times, and
	// WIRT measurement. Nil means clock.Real — but the harness injects
	// its experiment clock, and tests inject clock.Manual to re-target
	// fleets deterministically; drivers must never fall back to the wall
	// clock on their own.
	Clock clock.Clock

	// Set holds explicit profile settings (CLI -load-set key=value,
	// harness.Config.LoadSet). A key the profile does not understand is
	// a build error — typos must not pass silently.
	Set variant.Settings
	// Defaults holds advisory settings (the harness lowers Config.EBs,
	// the base population, into "ebs" here). A profile applies the keys
	// it understands and ignores the rest.
	Defaults variant.Settings
}

// clk returns the environment's clock, defaulting to the runtime clock.
func (e Env) clk() clock.Clock {
	if e.Clock != nil {
		return e.Clock
	}
	return clock.Real{}
}

// Driver is a built, runnable load shape.
type Driver interface {
	// Start launches the EB fleet and any population controller or
	// arrival process. It does not block.
	Start()
	// Stop halts the controller and every EB, waiting for in-flight
	// interactions. Call once, after Start.
	Stop()
	// Stats exposes the client-side WIRT measurements, gated to the
	// measurement window by the harness.
	Stats() *workload.Stats
	// Probes lists the client.* gauges this driver exports.
	Probes() []variant.Probe
}

// Profile is a named load recipe: its Name is the registry key
// ("steady", "spike", ...), and Build constructs a runnable Driver from
// the environment.
type Profile = variant.Recipe[Env, Driver]

// New wraps a name and a build function as a Profile.
func New(name string, build func(Env) (Driver, error)) Profile { return variant.NewRecipe(name, build) }

var registry = variant.NewRegistry[Profile]("load profile")

// Register adds a profile to the process-wide registry; it panics on an
// empty or duplicate name.
func Register(p Profile) { registry.Register(p) }

// Lookup finds a registered profile by name.
func Lookup(name string) (Profile, bool) { return registry.Lookup(name) }

// Names lists the registered profile names, sorted.
func Names() []string { return registry.Names() }
