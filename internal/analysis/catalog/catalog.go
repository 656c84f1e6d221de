// Package catalog is the canonical registry of the repo's string-keyed
// name spaces: probe/series names sampled into Result.Series and
// settings keys decoded through variant.Decoder. The probenames and
// settingskeys analyzers check every use site against these lists, and
// catalog_test cross-checks the lists against the declaring constants
// and the README tables — so a name cannot be registered, sampled, or
// documented without appearing everywhere it must.
//
// Adding a probe or settings key is a three-line change: declare the
// constant (or decoder call) where it is used, add it here with a short
// description, and document it in the README table. Any one of the
// three missing fails the build.
package catalog

import "regexp"

// ProbeNameRE is the shape every probe/series name must have:
// dotted lowercase, at least two segments ("db.inuse", not "dbInUse").
var ProbeNameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z0-9]+)+$`)

// SettingsKeyRE is the shape every settings key must have: a single
// lowercase word ("minreserve", not "min-reserve" or "minReserve").
var SettingsKeyRE = regexp.MustCompile(`^[a-z][a-z0-9]*$`)

// Probes maps every registered probe/series name to a one-line
// description. Sources: variant.Instance.Probes registrations
// (internal/variant/builtin.go), client-side load-generator probes
// (internal/workload), fault-injector probes (internal/faults), and the
// harness-owned throughput series (internal/harness).
var Probes = map[string]string{
	// Server-side probes (internal/variant/builtin.go).
	"queue.single":      "baseline: accepted requests waiting for a worker",
	"queue.general":     "staged: general dynamic queue depth",
	"queue.lengthy":     "staged: lengthy dynamic queue depth",
	"sched.reserve":     "staged: t_reserve spare-worker target",
	"sched.spare":       "staged: spare dynamic workers right now",
	"dispatch.general":  "staged: requests dispatched to general workers",
	"dispatch.lengthy":  "staged: requests dispatched to lengthy workers",
	"dispatch.lent":     "staged: general slots lent to lengthy waiters",
	"served.total":      "completed interactions since start",
	"db.inuse":          "database tier: connections checked out",
	"db.wait":           "database tier: acquisitions that had to wait",
	"db.queries":        "database tier: statements executed",
	"db.conflicts":      "mvcc: first-writer-wins write conflicts",
	"db.snapshots":      "mvcc: snapshot reads taken",
	"db.repllag":        "replication: max replica lag in commits",
	"db.stmtcache.hit":  "statement cache hits",
	"db.stmtcache.miss": "statement cache misses",
	"db.ejected":        "failover: replicas ejected from the read rotation",
	"db.resync":         "failover: replicas reintegrated after catch-up or resync",
	"db.plan.scan":      "planner: full-scan access paths executed",
	"db.plan.index":     "planner: index access paths executed (point, range, order, join)",
	"db.plan.rowsread":  "planner: row versions visited by access paths",

	// Cluster balancer probes (internal/cluster).
	"shard.route":     "cluster: requests routed to a single shard",
	"shard.fanout":    "cluster: requests broadcast to every shard",
	"shard.imbalance": "cluster: max-shard share over the balanced share",
	"lb.wait":         "cluster: load-balancer stage queue depth",
	"lb.retry":        "cluster: forward re-attempts (stale conn or backoff retry)",
	"lb.breaker":      "cluster: per-shard circuit-breaker opens",
	"lb.halfopen":     "cluster: half-open trial forwards probing an open breaker",

	// Fault-injector probes (internal/faults).
	"fault.injected": "fault plan: injections executed so far",

	// Client-side probes (internal/workload).
	"client.active":  "emulated browsers currently running",
	"client.offered": "interactions begun since the previous sample",
	"client.errors":  "failed interactions at the generator",
	"client.wirt":    "mean interaction response time since the previous sample (sec)",

	// Harness-owned series (internal/harness); the "throughput."
	// prefix is reserved for the harness.
	"throughput.all":     "completions per paper minute, all pages",
	"throughput.static":  "completions per paper minute, static pages",
	"throughput.dynamic": "completions per paper minute, dynamic pages",
	"throughput.quick":   "completions per paper minute, quick dynamic pages",
	"throughput.lengthy": "completions per paper minute, lengthy dynamic pages",
}

// SettingsKeys maps every key decodable through variant.Decoder to a
// one-line description. Sources: the variant registry
// (internal/variant/builtin.go) and the load-profile registry
// (internal/workload/profile.go). Test-only keys in *_test.go files are
// exempt — the analyzers skip test files.
var SettingsKeys = map[string]string{
	// Variant settings (internal/variant/builtin.go).
	"mvcc":       "storage engine: off = per-table RW locks, on = snapshot MVCC",
	"repl":       "replication mode: sync | async",
	"indexes":    "extra TPC-W secondary indexes: off = paper schema, on = indexed",
	"workers":    "baseline worker/connection count",
	"queuecap":   "bounded queue capacity",
	"replicas":   "database backends (1 primary + N-1 read replicas)",
	"dbconns":    "connections per database backend",
	"header":     "staged header-stage workers",
	"static":     "staged static-stage workers",
	"general":    "staged general dynamic workers",
	"lengthy":    "staged lengthy dynamic workers",
	"render":     "staged render-stage workers",
	"minreserve": "floor for the t_reserve controller",
	"cutoff":     "lengthy-page classification cutoff",
	"noreserve":  "disable the t_reserve controller",

	// Cluster settings (internal/cluster).
	"shards": "shard count behind the consistent-hash balancer",
	"lb":     "key-less routing policy: hash | rr",

	// Fault-plan settings (internal/faults).
	"faults":   "fault plan injected during the measurement window (none = off)",
	"faultset": "fault-plan settings as key=value,key=value pairs",
	"target":   "fault target index (backend or shard)",
	"restart":  "delay from injection to healing (paper time; 0 = never)",
	"slow":     "added per-statement latency for slow-backend (paper time)",
	"every":    "conn-drop repeat interval (paper time)",
	"conns":    "connections leaked per tier (0 = all idle)",

	// Load-profile settings (internal/workload/profile.go).
	"ebs":     "base emulated-browser population",
	"at":      "spike/fault onset (paper time)",
	"burst":   "spike peak population",
	"width":   "spike width (paper time)",
	"rate":    "open-loop session arrivals per paper second",
	"session": "open-loop mean session lifetime (paper time)",
}

// IsProbe reports whether name is a registered probe/series name.
func IsProbe(name string) bool { _, ok := Probes[name]; return ok }

// IsSettingsKey reports whether key is a registered settings key.
func IsSettingsKey(key string) bool { _, ok := SettingsKeys[key]; return ok }
