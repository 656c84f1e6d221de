package main

// metricDef is one catalogue entry. BENCHMARK.json carries name, unit,
// better and (end to end) bound; names_test.go holds the file to this
// catalogue. layer and moves are the interaction notes: which layer a
// metric belongs to and which end-to-end metric it should move, on
// which workload (README.md prints them as a table).
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end to end only: share of the parent's median it may worsen by
	layer  string
	moves  string
}

// endToEnd are the metrics a user of the server would see. Every
// workload reports every one of them, untraced.
var endToEnd = []metricDef{
	{name: "throughput_rps", unit: "1/s", better: "higher", bound: 0.25,
		moves: "verified-OK HTTP requests per second, upper quartile of the window's 1-second slices"},
	{name: "latency_p85_ms", unit: "ms", better: "lower", bound: 0.25,
		moves: "wall latency of a whole web interaction (page + its images, dial included): each 1-second slice's 85th percentile over raw samples, lower quartile of the slices. The slowest third of the browsing mix are the scan pages, so this is the typical slow page"},
	{name: "latency_p95_ms", unit: "ms", better: "lower", bound: 0.25,
		moves: "the same, 95th percentile: the slow pages' own tail (scans under contention, writes, queued lengthy pages)"},
	{name: "allocs_per_req", unit: "count", better: "lower", bound: 0.05,
		moves: "runtime.MemStats.Mallocs delta around the window only / requests"},
	{name: "bytes_per_req", unit: "B", better: "lower", bound: 0.06,
		moves: "runtime.MemStats.TotalAlloc delta around the window only / requests"},
	{name: "paper_interactions_per_min", unit: "1/min", better: "higher", bound: 0.25,
		moves: "verified interactions per paper minute, upper quartile of the 1-second slices; paper time = wall x timescale"},
	{name: "paper_slo_share", unit: "share", better: "higher", bound: 0.06,
		moves: "share of interactions answered within 3 paper-s; a failure is a miss"},
	{name: "ok_share", unit: "share", better: "higher", bound: 0.01,
		moves: "1 - failed_share: verified responses / attempted (golden replay included)"},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.15,
		moves: "heap still reachable after a forced GC when the window has closed: databases, server state, and the generator's own (fixed-size) buffers"},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		moves: "populate + index build + replica clone + server build, lower quartile of the run's set-ups (half timed before the window, half after)"},
}

// perLayer are the traced pass's metrics and the ledger's, grouped by
// the repo's own packages.
var perLayer = []metricDef{
	// client (the generator itself): must stay flat; if these move, the
	// generator changed, not the server.
	{name: "client.rtt_us", unit: "us", better: "lower", layer: "client", moves: "mean request span (traced pass)"},
	{name: "client.self_us", unit: "us", better: "lower", layer: "client", moves: "request span minus server time: loopback, client parse, and on cluster_images the balancer hop"},
	{name: "client.req_p50_us", unit: "us", better: "lower", layer: "client", moves: "per-request latency, median: a static wherever images are fetched"},
	{name: "client.req_p99_us", unit: "us", better: "lower", layer: "client", moves: "per-request latency, 99th percentile"},
	{name: "client.wirt_p50_us", unit: "us", better: "lower", layer: "client", moves: "per-interaction latency, median: a quick page; not end to end because on paper_heavy it is one timer sleep and doubles with the host's wake-up latency"},
	{name: "client.floor_us", unit: "us", better: "lower", layer: "client", moves: "round trip against the in-benchmark stub listener"},
	{name: "client.allocs_per_req", unit: "count", better: "lower", layer: "client", moves: "process allocations per stub round trip; <= 2 proves allocs_per_req is the server's"},

	// server.Transport.
	{name: "server.time_us", unit: "us", better: "lower", layer: "server", moves: "mean CompletionEvent.ServerTime; throughput_rps on browse_images/cluster_images, client.wirt_p50_us everywhere"},
	{name: "server.static_time_us", unit: "us", better: "lower", layer: "server", moves: "ServerTime of statics"},
	{name: "server.dynamic_time_us", unit: "us", better: "lower", layer: "server", moves: "ServerTime of pages"},
	{name: "server.self_us", unit: "us", better: "lower", layer: "server", moves: "ServerTime minus handler spans, per request: parse, hops, render, write"},
	{name: "server.static_share", unit: "share", better: "lower", layer: "server", moves: "share of requests that are statics (an input property, 0.82 with images)"},
	{name: "server.null_rtt_us.modified", unit: "us", better: "lower", layer: "server", moves: "ledger: one-line webtest.App page through the staged server"},
	{name: "server.null_rtt_us.unmodified", unit: "us", better: "lower", layer: "server", moves: "ledger: the same page through the thread-per-request baseline"},

	// stage / core.
	{name: "stage.hops_per_req", unit: "count", better: "lower", layer: "stage", moves: "stage completions per request; throughput_rps/allocs_per_req on browse_images, nothing beyond bound on browse_scan"},
	{name: "stage.max_depth", unit: "count", better: "lower", layer: "stage", moves: "deepest queue of any stage; paper_slo_share on paper_heavy, ~0 on workloads 1-4"},
	{name: "stage.shed", unit: "count", better: "lower", layer: "stage", moves: "items dropped on a full queue; must read 0 on workloads 1-4"},
	{name: "stage.general.max_depth", unit: "count", better: "lower", layer: "stage", moves: "general dynamic queue high-water mark (Figure 8a); paper_slo_share on paper_heavy"},
	{name: "stage.lengthy.max_depth", unit: "count", better: "lower", layer: "stage", moves: "lengthy dynamic queue high-water mark (Figure 8b); paper_interactions_per_min on paper_heavy"},
	{name: "stage.handoff_ns", unit: "ns", better: "lower", layer: "stage", moves: "ledger: Stage.Submit to worker start, no-op item"},
	{name: "stage.handoff_allocs", unit: "count", better: "lower", layer: "stage", moves: "ledger: allocations per hand-off"},

	// sched.
	{name: "sched.reserve_mean", unit: "count", better: "lower", layer: "sched", moves: "mean t_reserve over the window; paper_slo_share on paper_heavy"},
	{name: "sched.lengthy_dispatch_share", unit: "share", better: "lower", layer: "sched", moves: "share of dynamic dispatches sent to the lengthy pool; paper_* on paper_heavy"},

	// httpwire.
	{name: "httpwire.parse_ns", unit: "ns", better: "lower", layer: "httpwire", moves: "ledger: ReadRequest over the script's bytes; throughput_rps on browse_images, twice per request on cluster_images"},
	{name: "httpwire.parse_allocs", unit: "count", better: "lower", layer: "httpwire", moves: "ledger: allocations per parsed request; allocs_per_req on browse_images"},
	{name: "httpwire.write_ns", unit: "ns", better: "lower", layer: "httpwire", moves: "ledger: Response.Write at the workload's response sizes"},

	// tpcw handlers.
	{name: "tpcw.handler_us", unit: "us", better: "lower", layer: "tpcw", moves: "mean handler span"},
	{name: "tpcw.handler_self_us", unit: "us", better: "lower", layer: "tpcw", moves: "handler span minus its stmt spans; client.wirt_p50_us/allocs_per_req on browse_images and order_repl"},

	// template.
	{name: "template.render_ns", unit: "ns", better: "lower", layer: "template", moves: "ledger: mix-weighted Set.Render; client.wirt_p50_us/allocs_per_req on browse_images and order_repl, small on browse_scan"},
	{name: "template.render_allocs", unit: "count", better: "lower", layer: "template", moves: "ledger: allocations per render"},
	{name: "template.out_bytes", unit: "B", better: "lower", layer: "template", moves: "ledger: mean rendered page size"},
	{name: "template.parse_ns", unit: "ns", better: "lower", layer: "template", moves: "ledger: first Set.Get of a template (lex + parse)"},

	// dbtier.
	{name: "db.stmts_per_req", unit: "count", better: "lower", layer: "dbtier", moves: "stmt spans per HTTP request (statics included)"},
	{name: "db.stmt_us", unit: "us", better: "lower", layer: "dbtier", moves: "mean stmt span, through the tier"},
	{name: "db.time_per_req_us", unit: "us", better: "lower", layer: "dbtier", moves: "stmt time per HTTP request; throughput_rps on browse_scan"},
	{name: "db.write_share", unit: "share", better: "lower", layer: "dbtier", moves: "share of statements that are DML (an input property)"},
	{name: "dbtier.wait_count", unit: "count", better: "lower", layer: "dbtier", moves: "connection acquisitions that blocked; paper_* on paper_heavy, must read 0 on workloads 1-4"},
	{name: "dbtier.wait_p99_us", unit: "us", better: "lower", layer: "dbtier", moves: "p99 of blocked acquisitions (histogram bucket)"},
	{name: "dbtier.repllag_max", unit: "count", better: "lower", layer: "dbtier", moves: "largest sampled primary-to-replica commit gap; order_repl only"},
	{name: "dbtier.overhead_ns", unit: "ns", better: "lower", layer: "dbtier", moves: "ledger: a read via Tier.Conn() minus via DB.Connect(); client.wirt_p50_us on workloads 1-4"},
	{name: "dbtier.write_sync_ns", unit: "ns", better: "lower", layer: "dbtier", moves: "ledger: DML via a tier shaped like the workload's minus a bare connection; throughput_rps/latency_p95_ms on order_repl only"},

	// sqldb.
	{name: "sqldb.stmtcache_hit_ratio", unit: "share", better: "higher", layer: "sqldb", moves: "statement-cache hits / lookups; client.wirt_p50_us on workloads 1-4"},
	{name: "sqldb.rows_read_per_stmt", unit: "count", better: "lower", layer: "sqldb", moves: "row versions visited per statement; throughput_rps/latency_p95_ms on browse_scan"},
	{name: "sqldb.index_plan_share", unit: "share", better: "higher", layer: "sqldb", moves: "index access paths / all access paths"},
	{name: "sqldb.conflicts", unit: "count", better: "lower", layer: "sqldb", moves: "MVCC first-writer-wins aborts; order_repl only"},
	{name: "sqldb.snapshot_reads", unit: "count", better: "higher", layer: "sqldb", moves: "SELECTs served from an MVCC snapshot; order_repl only"},
	{name: "sqldb.point_ns", unit: "ns", better: "lower", layer: "sqldb", moves: "ledger: single-table SELECT served from an index; client.wirt_p50_us on workloads 1-4"},
	{name: "sqldb.scan_ns", unit: "ns", better: "lower", layer: "sqldb", moves: "ledger: single-table SELECT that scans; throughput_rps/latency_p95_ms on browse_scan"},
	{name: "sqldb.join_ns", unit: "ns", better: "lower", layer: "sqldb", moves: "ledger: SELECT with a JOIN; throughput_rps/latency_p95_ms/allocs_per_req on browse_scan, at most latency_p95_ms on browse_images"},
	{name: "sqldb.dml_ns", unit: "ns", better: "lower", layer: "sqldb", moves: "ledger: INSERT/UPDATE/DELETE; throughput_rps/latency_p95_ms on order_repl only"},
	{name: "sqldb.allocs_per_stmt", unit: "count", better: "lower", layer: "sqldb", moves: "ledger: allocations per replayed statement; allocs_per_req on browse_scan"},
	{name: "sqldb.parse_plan_ns", unit: "ns", better: "lower", layer: "sqldb", moves: "ledger: first execution on a fresh DB minus the second (parse + plan)"},

	// cluster.
	{name: "cluster.fanout_share", unit: "share", better: "lower", layer: "cluster", moves: "fanned-out / all balanced requests; cluster_images only"},
	{name: "cluster.imbalance", unit: "x", better: "lower", layer: "cluster", moves: "max-shard share over the balanced share of routed requests (1 = even)"},
	{name: "cluster.retries", unit: "count", better: "lower", layer: "cluster", moves: "forward re-attempts; must read 0"},
	{name: "cluster.hop_us", unit: "us", better: "lower", layer: "cluster", moves: "ledger: null page through a 1-shard Balancer minus direct; the cluster_images - browse_images gap"},

	// harness-style paper figures.
	{name: "paper.quick_wirt_mean_s", unit: "s", better: "lower", layer: "harness", moves: "mean WIRT of the quick pages, paper seconds"},
	{name: "paper.lengthy_wirt_mean_s", unit: "s", better: "lower", layer: "harness", moves: "mean WIRT of tpcw.SlowPages, paper seconds"},
	{name: "paper.cpu_util", unit: "cores", better: "lower", layer: "harness", moves: "process CPU / wall over the window; paper_heavy fails itself above 1.0"},
	{name: "paper.staged_gain_pct", unit: "%", better: "higher", layer: "harness", moves: "interactions/min of modified over unmodified, from one extra unmodified pass"},
	{name: "paper.quick_speedup_x", unit: "x", better: "higher", layer: "harness", moves: "unmodified / modified quick-page mean WIRT"},

	// whole run.
	{name: "runtime.gc_cpu_share", unit: "share", better: "lower", layer: "runtime", moves: "GC CPU / process CPU over the window; follows bytes_per_req into runtime.cpu_us_per_req and latency_p95_ms"},
	{name: "runtime.peak_rss_mb", unit: "MB", better: "lower", layer: "runtime", moves: "getrusage max RSS at the end of the traced pass; moves with GC pacing, unlike live_heap_mb"},
	{name: "runtime.cpu_us_per_req", unit: "us", better: "lower", layer: "runtime", moves: "getrusage user+sys over the window / requests; its inverse is requests/s/core. On paper_heavy it is mostly clock.Precise spinning"},
	{name: "runtime.goroutines_end", unit: "count", better: "lower", layer: "runtime", moves: "goroutines left after every system is stopped (a leak check)"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", layer: "trace", moves: "untraced minus traced throughput_rps, as a share of untraced"},
	{name: "ledger.sum_us", unit: "us", better: "lower", layer: "ledger", moves: "null round trip + per-request share of replayed sqldb, dbtier, template (+ cluster hop)"},
	{name: "ledger.coverage", unit: "share", better: "higher", layer: "ledger", moves: "ledger.sum_us / client.rtt_us; outside 0.8-1.2 a layer is missing from the ledger"},
}

// values maps metric name to measured value.
type values map[string]float64

// missing lists the catalogue names vs leaves unset, so a metric can
// never be silently dropped from the output.
func (vs values) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := vs[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}
