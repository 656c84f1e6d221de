// Command benchmark is the repo's benchmark: five seeded workloads over
// the real server, ten end-to-end metrics, and — with -trace 1 — a
// traced pass plus an outside-in layer ledger. BENCHMARK.json at the
// repo root is its contract; README.md in this directory explains the
// workloads, the metrics and how they should move together.
//
//	go run -C benchmark . -workload browse_images          # one workload, end to end
//	go run -C benchmark . -workload browse_scan -trace 1   # traced pass + ledger
//	go run -C benchmark . -repeat 5                        # noise check against the bounds
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"

	"stagedweb/internal/cluster"
	"stagedweb/internal/variant"
)

// result is one workload's run, as printed and as written by -o.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the contract's last-line object: exactly these four keys.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload (default: all five)")
		seed     = flag.Int64("seed", 1, "fixes every request script")
		seconds  = flag.Int("seconds", 20, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 = traced pass and ledger (per-layer metrics) instead of the end-to-end run")
		out      = flag.String("o", "", "also write the results as JSON to this file")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the window's spans, one JSON object per line")
		repeat   = flag.Int("repeat", 0, "run the end-to-end set N times; fail if any metric's spread exceeds its bound")
		golden   = flag.String("write-golden", "", "regenerate the golden body hashes into this file and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds < 1 || *seconds > 60 {
		fatal(fmt.Errorf("-seconds must be between 1 and 60"))
	}
	set := workloads
	if *name != "" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		set = []workload{w}
	}
	switch {
	case *golden != "":
		fatal(writeGolden(*golden))
	case *repeat > 0:
		fatal(noiseCheck(set, *seed, *seconds, *repeat))
	}

	var results []*result
	for _, w := range set {
		var r *result
		var err error
		if *trace != 0 {
			r, err = runTraced(w, *seed, *seconds, *traceOut)
		} else {
			r, err = runEndToEnd(w, *seed, *seconds)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		results = append(results, r)
		r.print()
	}
	if *out != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	for _, r := range results {
		if !r.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	if err == nil {
		os.Exit(0)
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// newResult packs measured values against a catalogue, refusing a
// missing or non-finite metric.
func newResult(w workload, seed int64, seconds int, traced bool, defs []metricDef, vs values) (*result, error) {
	if miss := vs.missing(defs); len(miss) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(miss, ", "))
	}
	r := &result{Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := vs[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return r, nil
}

func (r *result) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// print writes every metric by name with its unit, then the contract's
// JSON line.
func (r *result) print() {
	fmt.Printf("== %s  seed=%d  window=%ds  trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	for _, d := range r.defs() {
		fmt.Printf("%-32s %16.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	for _, n := range r.Notes {
		fmt.Println("#", n)
	}
	data, err := json.Marshal(line{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

// timedSetups builds and discards the system n times and returns each
// build's duration.
func timedSetups(w workload, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := clk.Now()
		sys, err := buildSystem(w, buildOpts{})
		if err != nil {
			return nil, err
		}
		out = append(out, clk.Since(t0).Seconds())
		if err := sys.stop(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runEndToEnd is the untraced run: golden replay, half of the set-ups
// timed for setup_s, warm-up and the measured window, then the other
// half — a burst of host interference lasts seconds, so it does not
// cover the set-ups on both sides of a 20 s window.
func runEndToEnd(w workload, seed int64, seconds int) (*result, error) {
	goldenN, goldenBad, firstSetup, err := goldenCheck(w)
	if err != nil {
		return nil, err
	}
	extra := w.setupRuns - 2 // the golden replay's and the pass's own count too
	setups, err := timedSetups(w, extra/2)
	if err != nil {
		return nil, err
	}
	p, err := runPass(w, seed, seconds, passOpts{})
	if err != nil {
		return nil, err
	}
	after, err := timedSetups(w, extra-extra/2)
	if err != nil {
		return nil, err
	}
	setups = append(append(setups, after...), firstSetup.Seconds(), p.setup.Seconds())

	vs, note, err := p.endToEnd()
	if err != nil {
		return nil, err
	}
	attempted, failed := goldenN+p.attempted(), goldenBad+p.failed()
	vs["ok_share"] = 1 - float64(failed)/float64(attempted)
	vs["setup_s"], _ = quartiles(setups)
	vs["live_heap_mb"] = p.liveHeap
	r, err := newResult(w, seed, seconds, false, endToEnd, vs)
	if err != nil {
		return nil, err
	}
	r.Attempted, r.Failed = attempted, failed
	r.Correct = failed == 0
	r.Notes = append(r.Notes,
		fmt.Sprintf("latency percentiles per 1 s slice over %d interactions; the thinnest slice holds %d, %d beyond its p95; setup_s is the lower quartile of %d set-ups",
			note.samples, note.thinnest, note.beyond, len(setups)))
	if note.beyond < 10 {
		r.Notes = append(r.Notes, "WARNING: a slice has fewer than 10 samples beyond its p95")
	}
	if goldenBad > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("FAILED: %d of %d golden bodies differ from testdata/golden_seed1.json", goldenBad, goldenN))
	}
	if p.failure != "" {
		r.Notes = append(r.Notes, "FAILED: first bad response: "+p.failure)
	}
	r.guardCPU(p)
	return r, nil
}

// guardCPU is paper_heavy's self-check: its 160 browsers and its
// workers are supposed to be asleep (think time, cost model) most of
// the time. Above one core, real CPU × scale is leaking into paper time
// and the figures measure the Go scheduler, not the paper's system.
func (r *result) guardCPU(p *pass) {
	if !p.w.think {
		return
	}
	util := p.cpuUtil()
	r.Notes = append(r.Notes, fmt.Sprintf("paper.cpu_util %.3f cores (must stay <= 1.0)", util))
	if util > 1.0 {
		r.Correct = false
		r.Notes = append(r.Notes, "FAILED: cpu_util above 1.0")
	}
}

// tracedSeconds and refSeconds split a traced run's -seconds between its
// traced window and its two untraced reference windows, so that a traced
// run takes about as long as an untraced one.
func tracedSeconds(seconds int) int { return max(3, seconds/2) }
func refSeconds(seconds int) int    { return max(3, seconds/5) }

// runTraced is the -trace 1 run: a traced window, an untraced reference
// window (tracing overhead), an unmodified-server window (the paper's
// comparison), and the ledger.
func runTraced(w workload, seed int64, seconds int, traceOut string) (*result, error) {
	goldenN, goldenBad, _, err := goldenCheck(w)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	p, err := runPass(w, seed, tracedSeconds(seconds), passOpts{tracer: tr})
	if err != nil {
		return nil, err
	}
	if len(p.reqs) == 0 {
		return nil, fmt.Errorf("no request completed inside the traced window")
	}
	ref, err := runPass(w, seed, refSeconds(seconds), passOpts{})
	if err != nil {
		return nil, err
	}
	base, err := runPass(w, seed, refSeconds(seconds), passOpts{variant: variant.Unmodified})
	if err != nil {
		return nil, err
	}

	vs := tr.spanMetrics(p)
	counterMetrics(p, vs)
	vs["runtime.peak_rss_mb"] = p.peakRSS
	vs["runtime.cpu_us_per_req"] = p.cpuPerRequestUS()
	_, reqDurs := p.okRequests()
	p50, _ := percentile(reqDurs, 0.50)
	p99, _ := percentile(reqDurs, 0.99)
	vs["client.req_p50_us"], vs["client.req_p99_us"] = float64(p50)/1e3, float64(p99)/1e3
	_, wirts := p.okInteractions()
	slices.Sort(wirts)
	wirtP50, _ := percentile(wirts, 0.50)
	vs["client.wirt_p50_us"] = float64(wirtP50) / 1e3
	vs["paper.quick_wirt_mean_s"] = p.wirtMeanPaperSec(false)
	vs["paper.lengthy_wirt_mean_s"] = p.wirtMeanPaperSec(true)
	vs["paper.cpu_util"] = p.cpuUtil()
	vs["paper.staged_gain_pct"] = pct(ref.interactionsPerMin()-base.interactionsPerMin(), base.interactionsPerMin())
	vs["paper.quick_speedup_x"] = ratio(base.wirtMeanPaperSec(false), ref.wirtMeanPaperSec(false))
	// Like with like: the traced window's first seconds against the
	// reference window of that length (order_repl slows as its tables grow).
	untraced, traced := ref.throughput(ref.seconds), p.throughput(ref.seconds)
	vs["trace.overhead_pct"] = pct(untraced-traced, untraced)

	if err := ledgerClient(vs); err != nil {
		return nil, err
	}
	if err := ledgerServer(vs); err != nil {
		return nil, err
	}
	ledgerStage(vs)
	if err := ledgerHTTPWire(p, vs); err != nil {
		return nil, err
	}
	if err := ledgerTemplate(tr, vs); err != nil {
		return nil, err
	}
	ledgerSum(w, vs, ledgerSQL(p, tr, vs))
	vs["runtime.goroutines_end"] = float64(runtime.NumGoroutine())

	if traceOut != "" {
		spans := append(requestSpans(p.reqs), tr.windowSpans(p.from, p.to)...)
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		if err := writeSpans(traceOut, spans); err != nil {
			return nil, err
		}
	}

	r, err := newResult(w, seed, seconds, true, perLayer, vs)
	if err != nil {
		return nil, err
	}
	r.Attempted = goldenN + p.attempted() + ref.attempted() + base.attempted()
	r.Failed = goldenBad + p.failed() + ref.failed() + base.failed()
	r.Correct = r.Failed == 0
	r.Notes = append(r.Notes, fmt.Sprintf(
		"traced window %ds (%d requests, %d spans); reference windows %ds: modified %.0f, unmodified %.0f interactions/paper-min",
		p.seconds, len(p.reqs), len(tr.spans), refSeconds(seconds), ref.interactionsPerMin(), base.interactionsPerMin()))
	for _, q := range []*pass{p, ref, base} {
		if q.failure != "" {
			r.Notes = append(r.Notes, "FAILED: first bad response: "+q.failure)
		}
	}
	r.guardCPU(p)
	return r, nil
}

func pct(delta, base float64) float64 { return 100 * ratio(delta, base) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics fills in the metrics read from the system's own
// counters at the window's edges: stage Stats, the variant's and the
// balancer's probes (by their exported names), and the tier.
func counterMetrics(p *pass, vs values) {
	delta := func(name string) float64 { return p.s1.probes[name] - p.s0.probes[name] }

	vs["stage.hops_per_req"] = ratio(float64(p.s1.completed-p.s0.completed), float64(p.nOK))
	vs["stage.shed"] = float64(p.s1.shed)
	deepest := 0
	for _, d := range p.s1.maxDepth {
		deepest = max(deepest, d)
	}
	vs["stage.max_depth"] = float64(deepest)
	vs["stage.general.max_depth"] = float64(p.s1.maxDepth["general"])
	vs["stage.lengthy.max_depth"] = float64(p.s1.maxDepth["lengthy"])

	vs["sched.reserve_mean"] = p.reserveMean
	toGeneral, toLengthy := delta(variant.ProbeDispatchGeneral), delta(variant.ProbeDispatchLengthy)
	vs["sched.lengthy_dispatch_share"] = ratio(toLengthy, toGeneral+toLengthy)

	vs["dbtier.wait_count"] = delta(variant.ProbeDBWait)
	vs["dbtier.wait_p99_us"] = float64(p.waitP99.Microseconds())
	vs["dbtier.repllag_max"] = p.replLagMax

	hits, misses := delta(variant.ProbeDBStmtHits), delta(variant.ProbeDBStmtMiss)
	vs["sqldb.stmtcache_hit_ratio"] = ratio(hits, hits+misses)
	vs["sqldb.rows_read_per_stmt"] = ratio(delta(variant.ProbeDBPlanRows), delta(variant.ProbeDBQueries))
	scans, index := delta(variant.ProbeDBPlanScan), delta(variant.ProbeDBPlanIndex)
	vs["sqldb.index_plan_share"] = ratio(index, scans+index)
	vs["sqldb.conflicts"] = delta(variant.ProbeDBConflicts)
	vs["sqldb.snapshot_reads"] = delta(variant.ProbeDBSnapshots)

	routed, fanned := delta(cluster.ProbeShardRoute), delta(cluster.ProbeShardFanout)
	vs["cluster.fanout_share"] = ratio(fanned, routed+fanned)
	vs["cluster.imbalance"] = p.s1.probes[cluster.ProbeShardImbalance]
	vs["cluster.retries"] = delta(cluster.ProbeLBRetry)

	vs["runtime.gc_cpu_share"] = ratio(p.p1.gcCPU-p.p0.gcCPU, (p.p1.cpu - p.p0.cpu).Seconds())
}

// writeGolden regenerates the golden body hashes for every workload.
func writeGolden(path string) error {
	golden := map[string][]string{}
	for _, w := range workloads {
		sums, _, err := goldenHashes(w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if len(sums) != goldenRequests {
			return fmt.Errorf("%s: replay made %d requests, want %d", w.name, len(sums), goldenRequests)
		}
		golden[w.name] = sums
	}
	data, err := json.MarshalIndent(golden, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// noiseCheck is the self-noise mode: the end-to-end set n times, the
// median and min–max per metric, and an error if any metric's spread
// (quartile distance over median, as the bounds are defined) exceeds
// its bound.
func noiseCheck(set []workload, seed int64, seconds, n int) error {
	var over []string
	for _, w := range set {
		runs := map[string][]float64{}
		for i := 0; i < n; i++ {
			r, err := runEndToEnd(w, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if !r.Correct {
				return fmt.Errorf("%s: run %d incorrect: %s", w.name, i+1, strings.Join(r.Notes, "; "))
			}
			for name, m := range r.Metrics {
				runs[name] = append(runs[name], m.Value)
			}
		}
		fmt.Printf("== %s  %d runs  seed=%d  window=%ds\n", w.name, n, seed, seconds)
		for _, d := range endToEnd {
			v := runs[d.name]
			spread := quartileSpread(v)
			mark := ""
			// setup_s is held to its bound between medians only.
			if spread > d.bound && d.name != "setup_s" {
				mark = "  OVER BOUND"
				over = append(over, w.name+"/"+d.name)
			}
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			fmt.Printf("%-28s median %14.4f %-6s min %14.4f max %14.4f spread %6.2f%% bound %5.1f%%%s\n",
				d.name, median(v), d.unit, lo, hi, 100*spread, 100*d.bound, mark)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread exceeds bound: %s", strings.Join(over, ", "))
	}
	return nil
}
