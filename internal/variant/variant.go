// Package variant makes server topologies first-class values: a Variant
// builds a runnable server Instance from an environment (application,
// database, clocks, cost models, generic settings), and a fixed table
// maps names to variants.
//
// The point of the indirection is that the experiment layers above —
// internal/harness, cmd/experiments, cmd/poolserv — never switch on a
// server type. They look a name up, build it, serve it, and sample its
// Probes into time series. The table holds the paper's two servers
// (unmodified, modified) and the t_reserve ablation (modified-noreserve),
// which is the modified server with minreserve=0 forced over its
// settings; all three are in builtin.go.
package variant

import (
	"maps"
	"net"
	"slices"

	"stagedweb/internal/clock"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/stage"
)

// Probe is a named gauge a running Instance exposes. The harness samples
// every probe once per paper second into a metrics.Series keyed by the
// probe's name, replacing hand-wired per-variant sampler blocks.
//
// Names follow a dotted <subsystem>.<metric> scheme ("queue.general",
// "sched.reserve") so series selectors in figures, CSV/JSON artifacts,
// and stats printouts stay uniform across variants. The "throughput."
// prefix is reserved for series the harness computes from completion
// events.
type Probe struct {
	// Name keys the sampled series.
	Name string
	// Gauge reads the current value. It must be safe to call
	// concurrently with the server running, and after Stop.
	Gauge func() float64
}

// Instance is a built, runnable server variant.
type Instance interface {
	// Serve accepts connections on l until Stop. It blocks; run it in a
	// goroutine. The error is nil after a clean Stop.
	Serve(l net.Listener) error
	// Stop shuts the server down, draining in-flight work. Idempotent,
	// and safe to call before, during, or after Serve.
	Stop()
	// Graph exposes the stage graph for uniform stats snapshots.
	Graph() *stage.Graph
	// Probes lists the gauges this variant exports.
	Probes() []Probe
}

// Env is everything a Variant needs to build an Instance.
type Env struct {
	// App is the application to serve.
	App server.App
	// DB is the database variants draw connections from.
	DB *sqldb.DB
	// Clock and Scale drive controllers and paper-time conversion. Nil
	// and zero take the builders' defaults (real time).
	Clock clock.Clock
	Scale clock.Timescale
	// Cost models render/static worker time; the zero value charges
	// nothing.
	Cost server.WorkCost
	// OnComplete, when set, receives a completion event per request.
	OnComplete func(server.CompletionEvent)

	// Set holds explicit setting overrides (CLI -set key=value,
	// harness.Config.Set, scenario mutations). A key the variant does
	// not understand is a build error — typos must not pass silently.
	Set Settings
	// Defaults holds advisory settings (harness.Config.Defaults). A
	// variant applies the keys it understands and ignores the rest, so
	// one experiment config can drive any topology.
	Defaults Settings
}

// Variant builds a runnable Instance from the environment.
type Variant func(Env) (Instance, error)

// Build runs the variant's build function.
func (v Variant) Build(env Env) (Instance, error) { return v(env) }

// Lookup finds a variant by name.
func Lookup(name string) (Variant, bool) {
	v, ok := variants[name]
	return v, ok
}

// Names lists the variant names, sorted.
func Names() []string { return slices.Sorted(maps.Keys(variants)) }
