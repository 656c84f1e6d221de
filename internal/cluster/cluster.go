package cluster

import "stagedweb/internal/clock"

// LBHash is the load-balancer policy for key-less requests: hash the
// request target on the ring — deterministic, so identical requests
// always land on the same shard.
const LBHash = "hash"

// Probe names the balancer exports next to the shard instances' own
// (aggregated) probes.
const (
	// ProbeShardRoute counts requests routed to a single shard
	// (cumulative; fanned-out requests count under shard.fanout).
	ProbeShardRoute = "shard.route"
	// ProbeShardFanout counts requests broadcast to every shard
	// (cumulative).
	ProbeShardFanout = "shard.fanout"
	// ProbeShardImbalance is the max-shard share of routed requests over
	// the perfectly-balanced share (1.0 = even spread, M = everything on
	// one shard).
	ProbeShardImbalance = "shard.imbalance"
	// ProbeLBWait is the load-balancer stage's current queue depth —
	// requests parsed but not yet forwarded to a shard.
	ProbeLBWait = "lb.wait"
	// ProbeLBRetry counts forward re-attempts — a pooled keep-alive
	// connection gone stale, or a transient shard error retried after
	// backoff (cumulative).
	ProbeLBRetry = "lb.retry"
	// ProbeLBBreaker counts per-shard circuit-breaker opens: a shard
	// that failed breakerThreshold consecutive forwards is skipped
	// until its cooldown expires (cumulative; a failed half-open trial
	// re-arming the cooldown counts as a new open).
	ProbeLBBreaker = "lb.breaker"
	// ProbeLBHalfOpen counts half-open trial forwards: after an open
	// breaker's cooldown, exactly one request is let through to probe the
	// shard — success closes the breaker, failure re-arms the cooldown.
	// The shard is re-admitted by probe success, never by timer expiry
	// alone (cumulative).
	ProbeLBHalfOpen = "lb.halfopen"
)

// Options configures a Balancer.
type Options struct {
	// Shards is the number of shard instances fronted (>= 1).
	Shards int
	// LB is the key-less routing policy: LBHash, the only one, or ""
	// for it.
	LB string
	// Clock schedules the balancer's paper-time deadlines (fan-out
	// deadline, retry backoff, breaker cooldown); nil means clock.Real.
	Clock clock.Clock
	// Scale converts those paper-time deadlines to wall time; <= 0
	// means clock.RealTime.
	Scale clock.Timescale
}

// Decision is a routing verdict for one request.
type Decision struct {
	// Key is the partition-affinity key ("" = no affinity). Keyed
	// requests always go to the ring owner; a keyed fan-out uses the
	// owner's response as the merged reply.
	Key string
	// Fanout broadcasts the request to every shard and waits for all of
	// them — cross-shard reads scan every slice, cross-shard writes
	// apply everywhere (read-your-writes for subsequent routed reads).
	Fanout bool
}

// RouteFunc maps one parsed request (path and query) to a routing
// Decision. It must be safe for concurrent use.
type RouteFunc func(path string, query map[string]string) Decision
