package workload

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"time"

	"stagedweb/internal/variant"
)

// Probe names every Generator exports. The "client." prefix is reserved
// for these, next to the server-side "queue."/"sched." families.
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

// Names of the load profiles.
const (
	// Steady is the paper's workload: a fixed closed-loop population.
	Steady = "steady"
	// Spike is a flash crowd: a base population plus a burst of extra
	// EBs inside a window.
	Spike = "spike"
	// OpenLoop replaces the closed population with Poisson session
	// arrivals: offered load that does not slow down when the server
	// does.
	OpenLoop = "open-loop"
)

// Env is everything a Profile needs to build a Generator: the fleet's
// Config, whose EBs is the closed-loop profiles' base population (100
// when zero), and the profile's settings.
type Env struct {
	Config
	// Set holds explicit profile settings (CLI -load-set key=value,
	// harness.Config.LoadSet). A key the profile does not understand is
	// a build error — typos must not pass silently.
	Set variant.Settings
}

// defaultEBs is the base population when Config.EBs names none.
const defaultEBs = 100

// baseEBs is the base population of the steady and spike profiles.
func (e Env) baseEBs() int {
	if e.EBs > 0 {
		return e.EBs
	}
	return defaultEBs
}

// Profile builds an unstarted Generator from the environment.
type Profile func(Env) (*Generator, error)

// Build runs the profile's build function.
func (p Profile) Build(env Env) (*Generator, error) { return p(env) }

// profiles is the table Lookup and Names read.
var profiles = map[string]Profile{
	Steady:   buildSteady,
	Spike:    buildSpike,
	OpenLoop: buildOpenLoop,
}

// Lookup finds a profile by name.
func Lookup(name string) (Profile, bool) {
	p, ok := profiles[name]
	return p, ok
}

// Names lists the profile names, sorted.
func Names() []string { return slices.Sorted(maps.Keys(profiles)) }

// scheduled builds a Generator of ebs browsers whose closed-loop
// population follows schedule — paper time since Start mapped to a
// target EB count, evaluated once per paper second. The steady and spike
// profiles compose it; pass a nil schedule for a fixed fleet.
func scheduled(env Env, ebs int, schedule func(time.Duration) int) (*Generator, error) {
	env.EBs = ebs
	g := New(env.Config)
	g.schedule = schedule
	return g, nil
}

// buildSteady constructs the fixed closed-loop fleet of Config.EBs
// browsers (current paper behavior).
//
// Settings: none.
func buildSteady(env Env) (*Generator, error) {
	if err := variant.NewSettingsDecoder(env.Set, nil).Finish(); err != nil {
		return nil, fmt.Errorf("%s: %w", Steady, err)
	}
	return scheduled(env, env.baseEBs(), nil)
}

// buildSpike constructs a flash crowd over a base population of
// Config.EBs browsers.
//
// Settings: burst (extra EBs during the burst, default twice the base),
// at (burst start in paper time since load start, default 1m), width
// (burst duration, default 30s).
func buildSpike(env Env) (*Generator, error) {
	base := env.baseEBs()
	d := variant.NewSettingsDecoder(env.Set, nil)
	burst := d.Int("burst", 2*base)
	at := d.Duration("at", time.Minute)
	width := d.Duration("width", 30*time.Second)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%s: %w", Spike, err)
	}
	if burst < 0 || width <= 0 {
		return nil, fmt.Errorf("%s: burst must be >= 0 and width positive", Spike)
	}
	return scheduled(env, base, func(t time.Duration) int {
		if t >= at && t < at+width {
			return base + burst
		}
		return base
	})
}

// buildOpenLoop constructs Poisson session arrivals.
//
// Settings: rate (session arrivals per paper second), session (mean
// exponential session lifetime in paper time, default 1m).
func buildOpenLoop(env Env) (*Generator, error) {
	d := variant.NewSettingsDecoder(env.Set, nil)
	rate := d.Float("rate", 2)
	session := d.Duration("session", time.Minute)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%s: %w", OpenLoop, err)
	}
	if rate <= 0 || session <= 0 {
		return nil, fmt.Errorf("%s: rate and session must be positive", OpenLoop)
	}
	// The fleet starts empty; every EB is an arriving session.
	env.EBs = 0
	g := New(env.Config)
	g.arrive = &arrivals{
		rate:    rate,
		session: session,
		rng:     rand.New(rand.NewSource(env.Seed*31 + 17)),
	}
	return g, nil
}

// arrivals is a Poisson session arrival process: sessions arrive at
// rate per paper second and live for an exponentially distributed
// paper-time lifetime with mean session — the open-loop workload class
// where offered load does not slow down when the server does.
type arrivals struct {
	rate    float64       // sessions per paper second
	session time.Duration // mean session lifetime, paper time
	rng     *rand.Rand
}
