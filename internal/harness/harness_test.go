package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/faults"
	"stagedweb/internal/metrics"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
	"stagedweb/internal/webtest"
	"stagedweb/internal/workload"
)

func TestMain(m *testing.M) { webtest.Main(m) }

// testConfig is a miniature experiment that still exhibits the paper's
// fast/slow structure: small population with a heavy scan cost, a short
// measurement window, closed-loop browsers.
func testConfig(variantName string) Config {
	cfg := QuickConfig(variantName, clock.Timescale(200))
	cfg.EBs = 160
	cfg.RampUp = 30 * time.Second
	cfg.Measure = 3 * time.Minute
	cfg.CoolDown = 10 * time.Second
	cfg.Populate = tpcw.PopulateConfig{Items: 1200, Customers: 300, Orders: 260}
	// 1200 rows at 4 ms/row -> 4.8 s paper scans, well over the 2 s
	// cutoff and heavy enough that slow-page demand exceeds the
	// baseline's 26-connection budget (the paper's "heavy load").
	//
	// The override matters: QuickConfig's 1.5 ms/row puts the scan pages
	// at 1.2-1.9 s of intrinsic data-generation time — just UNDER the
	// cutoff — so they only classified lengthy when database lock
	// contention inflated the measurement, and the quick-page protection
	// flapped with scheduler noise.
	cfg.Cost.PerRowScanned = 4 * time.Millisecond
	return cfg
}

// TestExperimentShape runs both server variants end to end and asserts
// the qualitative results of the paper's evaluation.
func TestExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment skipped in -short mode")
	}
	if webtest.RaceEnabled {
		t.Skip("race-detector overhead (5-20x) swamps the paper-time " +
			"calibration; run without -race for the experiment shapes")
	}
	unmod, err := Run(testConfig(variant.Unmodified))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Run(testConfig(variant.Modified))
	if err != nil {
		t.Fatal(err)
	}

	if unmod.TotalInteractions == 0 || mod.TotalInteractions == 0 {
		t.Fatalf("no interactions: unmod=%d mod=%d", unmod.TotalInteractions, mod.TotalInteractions)
	}
	t.Logf("unmod=%d mod=%d gain=%+.1f%%",
		unmod.TotalInteractions, mod.TotalInteractions, ThroughputGainPercent(unmod, mod))

	// Shape 1 (Table 4 / Figure 9): the modified server completes at
	// least 85% of the baseline's interactions. That is a floor, not the
	// paper's +31.3%: the sign of the overall gain on this calibration is
	// still ROADMAP item 1's question. With Table 1 applied again at slot
	// release the ratio read 1.057-1.101 in six runs on a 2-vCPU VM; with
	// it applied at arrival only, 0.79-0.94, under the floor in 2 of 5.
	if float64(mod.TotalInteractions) < 0.85*float64(unmod.TotalInteractions) {
		t.Errorf("modified server much slower overall: %d vs %d",
			mod.TotalInteractions, unmod.TotalInteractions)
	}

	// Shape 2 (Table 3): the canonical quick pages respond much faster
	// on the modified server (the paper reports ~100x for home).
	for _, page := range []string{tpcw.PageHome, tpcw.PageProductDetail, tpcw.PageSearchRequest} {
		u, m := unmod.Pages[page], mod.Pages[page]
		if u.Count == 0 || m.Count == 0 {
			t.Errorf("%s unvisited: unmod=%d mod=%d", page, u.Count, m.Count)
			continue
		}
		t.Logf("%-24s unmod=%.3fs mod=%.3fs", page, u.MeanPaperSec, m.MeanPaperSec)
		if m.MeanPaperSec >= u.MeanPaperSec {
			t.Errorf("%s not faster on modified server: %.3fs vs %.3fs",
				page, m.MeanPaperSec, u.MeanPaperSec)
		}
	}

	// Shape 3 (Figures 7/8): the baseline's single queue backs up far
	// beyond the staged server's general queue, which stays near zero.
	baseQ := SeriesMax(unmod.Series[variant.ProbeQueueSingle])
	genQ := SeriesMax(mod.Series[variant.ProbeQueueGeneral])
	t.Logf("queue max: baseline=%.0f staged-general=%.0f staged-lengthy=%.0f",
		baseQ, genQ, SeriesMax(mod.Series[variant.ProbeQueueLengthy]))
	if baseQ <= genQ {
		t.Errorf("baseline queue (%v) did not exceed staged general queue (%v)", baseQ, genQ)
	}

	// Shape 4: the staged server pushed lengthy requests into the
	// lengthy queue rather than the general one.
	if SeriesMax(mod.Series[variant.ProbeQueueLengthy]) == 0 {
		t.Error("lengthy queue never used — classification failed")
	}
	// ... and Table 1, applied again when a general slot is released,
	// lent freed general slots to lengthy requests waiting in that queue.
	if SeriesMax(mod.Series[variant.ProbeDispatchLent]) == 0 {
		t.Error("no general slot lent to a lengthy waiter")
	}

	// Bookkeeping sanity: every probe of each variant became a series.
	if unmod.Series[variant.ProbeQueueSingle] == nil ||
		mod.Series[variant.ProbeQueueGeneral] == nil ||
		mod.Series[variant.ProbeQueueLengthy] == nil {
		t.Fatal("queue series missing")
	}
	if mod.Series[variant.ProbeReserve] == nil {
		t.Fatal("reserve series missing")
	}
	errRate := float64(unmod.Errors+mod.Errors) /
		float64(unmod.TotalInteractions+mod.TotalInteractions+1)
	if errRate > 0.2 {
		t.Errorf("error rate too high: %.2f", errRate)
	}

	// The rendered tables mention every page.
	t3 := Table3(unmod, mod)
	t4 := Table4(unmod, mod)
	for _, page := range tpcw.Pages {
		if !strings.Contains(t3, tpcw.PageTitle(page)) {
			t.Errorf("Table3 missing %s", page)
		}
		if !strings.Contains(t4, tpcw.PageTitle(page)) {
			t.Errorf("Table4 missing %s", page)
		}
	}
	if !strings.Contains(t4, "throughput gain") {
		t.Error("Table4 missing gain line")
	}
	// Figures render non-empty plots.
	for name, fig := range map[string]string{
		"fig7": Figure7(unmod), "fig8": Figure8(mod),
		"fig9": Figure9(unmod, mod), "fig10": Figure10(unmod, mod),
	} {
		if !strings.Contains(fig, "*") {
			t.Errorf("%s rendered no data:\n%s", name, fig)
		}
	}
}

// TestClusterRun drives a sharded run end to end through the public
// config surface: the shards setting puts the consistent-hash balancer in
// front of shard-owning instances, the balancer's routing series land
// in Result.Series next to the aggregated server series, and the tail
// statistics are populated.
func TestClusterRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment skipped in -short mode")
	}
	if webtest.RaceEnabled {
		t.Skip("race-detector overhead distorts the paper-time calibration")
	}
	cfg := QuickConfig(variant.Unmodified, clock.Timescale(200))
	cfg.EBs = 40
	cfg.RampUp = 10 * time.Second
	cfg.Measure = time.Minute
	cfg.CoolDown = 5 * time.Second
	cfg.Populate = tpcw.PopulateConfig{Items: 300, Customers: 120, Orders: 100}
	cfg.Defaults["shards"] = "2"

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalInteractions == 0 {
		t.Fatal("clustered run completed no interactions")
	}
	for _, name := range []string{"shard.route", "shard.fanout", "shard.imbalance", "lb.wait"} {
		if res.Series[name] == nil {
			t.Errorf("clustered run missing %s series", name)
		}
	}
	if SeriesMax(res.Series["shard.route"]) == 0 {
		t.Error("balancer routed nothing")
	}
	// The shard instances' own probes arrive aggregated under their
	// usual names, so downstream tooling needs no cluster awareness.
	if res.Series[variant.ProbeQueueSingle] == nil {
		t.Error("aggregated shard queue.single series missing")
	}
	if res.P99PaperSec <= 0 {
		t.Errorf("p99 not populated: %v", res.P99PaperSec)
	}
	if res.P999PaperSec < res.P99PaperSec {
		t.Errorf("p99.9 (%v) below p99 (%v)", res.P999PaperSec, res.P99PaperSec)
	}
	if res.SLOAttained < 0 || res.SLOAttained > 1 {
		t.Errorf("SLO attainment out of range: %v", res.SLOAttained)
	}

	// The strict settings surface covers the cluster keys: a bad shard
	// count is a build error, not a silent fallback.
	bad := cfg.With(func(c *Config) { c.Defaults["shards"] = "0" })
	if _, err := Run(bad); err == nil {
		t.Error("shards=0 accepted")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := QuickConfig("no-such-variant", clock.Timescale(1000))
	cfg.EBs = 1
	cfg.RampUp, cfg.Measure, cfg.CoolDown = 0, time.Second, 0
	cfg.Populate = tpcw.PopulateConfig{Items: 10, Customers: 2, Orders: 2}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "no-such-variant") {
		t.Fatalf("unknown variant accepted: %v", err)
	}
	// Unknown explicit settings are build errors, and the listener leak
	// path (build failure after Listen) must not wedge the run.
	cfg = QuickConfig(variant.Modified, clock.Timescale(1000))
	cfg.Populate = tpcw.PopulateConfig{Items: 10, Customers: 2, Orders: 2}
	cfg.Set = variant.Settings{"bogus": "1"}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown setting accepted: %v", err)
	}
	// The load-profile axis validates the same way: unknown profile,
	// unknown mix, unknown profile setting.
	cfg = QuickConfig(variant.Modified, clock.Timescale(1000))
	cfg.Load = "no-such-profile"
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "no-such-profile") {
		t.Fatalf("unknown load profile accepted: %v", err)
	}
	cfg = QuickConfig(variant.Modified, clock.Timescale(1000))
	cfg.Mix = "no-such-mix"
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "no-such-mix") {
		t.Fatalf("unknown mix accepted: %v", err)
	}
	cfg = QuickConfig(variant.Modified, clock.Timescale(1000))
	cfg.Populate = tpcw.PopulateConfig{Items: 10, Customers: 2, Orders: 2}
	cfg.Load = workload.Spike
	cfg.LoadSet = variant.Settings{"bogus": "1"}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown load setting accepted: %v", err)
	}
}

// TestLoadProfileRun drives a spike profile end to end through Run: the
// client.* series must appear next to the server's, and the sampled
// active-EB series must show the burst population.
func TestLoadProfileRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment skipped in -short mode")
	}
	if webtest.RaceEnabled {
		t.Skip("race-detector overhead distorts the burst window timing")
	}
	cfg := QuickConfig(variant.Modified, clock.Timescale(400))
	cfg.EBs = 10
	cfg.RampUp = 5 * time.Second
	cfg.Measure = 40 * time.Second
	cfg.CoolDown = 5 * time.Second
	cfg.Populate = tpcw.PopulateConfig{Items: 200, Customers: 60, Orders: 50}
	cfg.Load = workload.Spike
	cfg.LoadSet = variant.Settings{"burst": "15", "at": "10s", "width": "20s"}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{workload.ProbeActive, workload.ProbeOffered, workload.ProbeErrors, workload.ProbeWIRT} {
		if res.Series[name] == nil {
			t.Fatalf("client series %q missing (have %v)", name, seriesNames(res))
		}
	}
	if res.Config.Load != workload.Spike {
		t.Fatalf("result config load = %q", res.Config.Load)
	}
	// The sampler must see the burst: 10 base + 15 burst EBs.
	if peak := SeriesMax(res.Series[workload.ProbeActive]); peak < 20 {
		t.Errorf("peak active EBs = %v, want ~25 during the burst", peak)
	}
	if res.TotalInteractions == 0 {
		t.Fatal("no interactions completed")
	}
}

func seriesNames(res *Result) []string {
	names := make([]string, 0, len(res.Series))
	for name := range res.Series {
		names = append(names, name)
	}
	return names
}

func TestTable2Rendering(t *testing.T) {
	tspare := []int{35, 24, 17, 21, 30, 36, 38, 37, 35, 39}
	treserve := []int{20, 20, 20, 26, 31, 32, 30, 26, 21, 20}
	out := Table2(tspare, treserve)
	if !strings.Contains(out, "tspare") || !strings.Contains(out, "treserve") {
		t.Fatalf("Table2 malformed:\n%s", out)
	}
	if !strings.Contains(out, "   17         20") {
		t.Fatalf("Table2 missing trace row:\n%s", out)
	}
}

func TestAsciiPlot(t *testing.T) {
	start := time.Now()
	s := metrics.NewSeries(start, time.Second, metrics.AggSum)
	for i := 0; i < 100; i++ {
		s.Observe(start.Add(time.Duration(i)*time.Second), float64(i%10))
	}
	out := AsciiPlotScaled("test plot", "units", s, 40, 8, clock.RealTime)
	if !strings.Contains(out, "test plot") || !strings.Contains(out, "*") {
		t.Fatalf("plot malformed:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+8+2 {
		t.Fatalf("plot has %d lines, want 11:\n%s", len(lines), out)
	}
	empty := metrics.NewSeries(start, time.Second, metrics.AggSum)
	if out := AsciiPlotScaled("empty", "u", empty, 10, 4, clock.RealTime); !strings.Contains(out, "no data") {
		t.Fatalf("empty plot: %s", out)
	}
}

func TestSeriesHelpers(t *testing.T) {
	start := time.Now()
	s := metrics.NewSeries(start, time.Second, metrics.AggSum)
	s.Observe(start, 2)
	s.Observe(start.Add(time.Second), 6)
	if got := SeriesMax(s); got != 6 {
		t.Fatalf("SeriesMax = %v", got)
	}
	if SeriesMax(nil) != 0 {
		t.Fatal("nil series helpers")
	}
}

func TestWriteCSV(t *testing.T) {
	start := time.Now()
	s := metrics.NewSeries(start, time.Second, metrics.AggSum)
	s.Observe(start, 1)
	s.Observe(start.Add(time.Second), 2)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "offset_seconds,value\n") {
		t.Fatalf("csv header missing: %q", out)
	}
	if !strings.Contains(out, "0.000,1.000") || !strings.Contains(out, "1.000,2.000") {
		t.Fatalf("csv rows wrong: %q", out)
	}
	buf.Reset()
	if err := WriteCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputGain(t *testing.T) {
	u := &Result{TotalInteractions: 100}
	m := &Result{TotalInteractions: 131}
	if got := ThroughputGainPercent(u, m); got < 30.9 || got > 31.1 {
		t.Fatalf("gain = %v, want ~31", got)
	}
	if got := ThroughputGainPercent(&Result{}, m); got != 0 {
		t.Fatalf("zero baseline gain = %v", got)
	}
}

func TestPaperAndQuickConfigs(t *testing.T) {
	p := PaperConfig(variant.Modified, clock.DefaultScale)
	if p.EBs != 400 || p.Measure != 50*time.Minute || p.Defaults["general"] != "40" || p.Defaults["lengthy"] != "10" {
		t.Fatalf("paper config wrong: %+v", p)
	}
	q := QuickConfig(variant.Unmodified, clock.DefaultScale)
	if q.EBs >= p.EBs || q.Measure >= p.Measure {
		t.Fatal("quick config not smaller than paper config")
	}
	if q.Cost == (sqldb.CostModel{}) {
		t.Fatal("quick config has zero cost model")
	}
}

func TestConfigWithClonesSettings(t *testing.T) {
	base := QuickConfig(variant.Modified, clock.DefaultScale)
	base.Set = variant.Settings{"general": "8"}
	derived := base.With(func(c *Config) {
		c.EBs = 7
		c.Set["general"] = "4"
		c.Defaults["replicas"] = "2"
	})
	if derived.EBs != 7 || derived.Set["general"] != "4" || derived.Defaults["replicas"] != "2" {
		t.Fatalf("mutation lost: %+v", derived)
	}
	if base.Set["general"] != "8" || base.EBs == 7 {
		t.Fatal("With mutated the base config")
	}
	if _, ok := base.Defaults["replicas"]; ok {
		t.Fatal("With aliased the base config's Defaults")
	}
	// A nil Set must be allocated so mutations can write it directly.
	fresh := QuickConfig(variant.Modified, clock.DefaultScale).
		With(func(c *Config) { c.Set["cutoff"] = "3s" })
	if fresh.Set["cutoff"] != "3s" {
		t.Fatalf("nil-Set mutation lost: %v", fresh.Set)
	}
}

// TestNoReserveVariant exercises the topology variant defined purely as
// configuration: the staged server with the t_reserve controller
// ablated, which is the modified server at minreserve=0. Either way the
// reserve series must stay pinned at zero while the run still completes
// work through the staged pipeline.
func TestNoReserveVariant(t *testing.T) {
	for _, cfg := range []Config{
		QuickConfig(variant.ModifiedNoReserve, clock.Timescale(400)),
		QuickConfig(variant.Modified, clock.Timescale(400)).With(func(c *Config) { c.Set["minreserve"] = "0" }),
	} {
		cfg.EBs = 20
		cfg.RampUp = 5 * time.Second
		// One second of wall time at this scale: a host stall of some tens
		// of milliseconds cannot empty the window.
		cfg.Measure = 400 * time.Second
		cfg.CoolDown = 5 * time.Second
		cfg.Populate = tpcw.PopulateConfig{Items: 200, Customers: 60, Orders: 50}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Variant != cfg.Variant {
			t.Fatalf("variant = %q, want %q", res.Variant, cfg.Variant)
		}
		if res.TotalInteractions == 0 {
			t.Fatalf("%s %v: no interactions completed", cfg.Variant, cfg.Set)
		}
		if res.Series[variant.ProbeQueueGeneral] == nil || res.Series[variant.ProbeQueueLengthy] == nil ||
			res.Series[variant.ProbeReserve] == nil {
			t.Fatalf("%s %v: staged series missing", cfg.Variant, cfg.Set)
		}
		if max := SeriesMax(res.Series[variant.ProbeReserve]); max != 0 {
			t.Fatalf("%s %v: t_reserve moved (max %v) with the reserve ablated", cfg.Variant, cfg.Set, max)
		}
	}
}

// TestResolveSettings checks the run-level settings resolve splits off
// Config.Set and decodes with Config.Defaults: the fault plan and its
// settings. (Boot decodes the cluster's shards; see TestSplitShards.)
func TestResolveSettings(t *testing.T) {
	resolve := func(set, defaults variant.Settings) (*run, error) {
		cfg := QuickConfig(variant.Modified, clock.Timescale(1000))
		cfg.Set = set
		for k, v := range defaults {
			cfg.Defaults[k] = v
		}
		r := &run{cfg: cfg}
		return r, r.resolve()
	}
	r, err := resolve(variant.Settings{"faults": "replica-kill", "faultset": "at=10s,target=1", "workers": "8"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.faultPlan != faults.ReplicaKill || r.faultSet["at"] != "10s" || r.faultSet["target"] != "1" {
		t.Fatalf("plan %q, faultset %v", r.faultPlan, r.faultSet)
	}
	if _, leaked := r.set["faults"]; leaked || r.set["workers"] != "8" {
		t.Fatalf("variant settings = %v, want only workers", r.set)
	}

	// "none" and empty both disable.
	if r, err = resolve(variant.Settings{"faults": "none"}, nil); err != nil || r.faultPlan != "" {
		t.Fatalf("faults=none: plan %q, err %v", r.faultPlan, err)
	}
	// The plan can arrive through the defaults too.
	if r, err = resolve(nil, variant.Settings{"faults": "leak"}); err != nil || r.faultPlan != faults.Leak {
		t.Fatalf("default plan: %q, err %v", r.faultPlan, err)
	}

	for name, bad := range map[string]variant.Settings{
		"unknown plan":          {"faults": "nope"},
		"faultset without plan": {"faultset": "at=10s"},
		"malformed faultset":    {"faults": "leak", "faultset": "at"},
	} {
		if _, err := resolve(bad, nil); err == nil {
			t.Errorf("%s: %v accepted", name, bad)
		}
	}
}

// TestRunTearsDown runs configs that fail after the listener opens, at
// each build step, and one that succeeds: each returns its error or
// result, and every goroutine the run started has exited.
func TestRunTearsDown(t *testing.T) {
	tiny := func(mut func(*Config)) Config {
		cfg := sweepConfig(variant.Modified).With(mut)
		cfg.EBs, cfg.Measure = 4, 5*time.Second
		return cfg
	}
	cases := []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"generator build", tiny(func(c *Config) { c.LoadSet["bogus"] = "1" }), "bogus"},
		{"injector build", tiny(func(c *Config) {
			c.Defaults["replicas"] = "2"
			c.Defaults["faults"] = faults.ReplicaKill
			c.Defaults["faultset"] = "target=5"
		}), "out of range"},
		{"clustered unknown setting", tiny(func(c *Config) {
			c.Defaults["shards"] = "2"
			c.Set["bogus"] = "1"
		}), "bogus"},
		{"2-shard run", tiny(func(c *Config) { c.Defaults["shards"] = "2" }), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer webtest.NoNewGoroutines(t)()
			res, err := Run(tc.cfg)
			switch {
			case tc.wantErr == "" && (err != nil || res == nil):
				t.Error(err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("err %v, want one naming %q", err, tc.wantErr)
			}
		})
	}
}

// TestSeriesEndWithCoolDown: sampling ends with the cool-down, so no
// per-second series holds a point at or past Measure + CoolDown, though
// teardown still drains the interactions in flight then.
func TestSeriesEndWithCoolDown(t *testing.T) {
	cfg := sweepConfig(variant.Unmodified)
	// 100 items at 50 ms a row: a scan page takes 5 paper seconds, so
	// interactions are in flight when the cool-down ends.
	cfg.Cost.PerRowScanned = 50 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, limit := cfg.Scale.Wall(time.Second), int((cfg.Measure+cfg.CoolDown)/time.Second)
	n := 0
	for name, s := range res.Series {
		if s.Width() != second {
			continue
		}
		n++
		if got := len(s.Points()); got == 0 || got > limit {
			t.Errorf("%s: %d points, want 1 to %d (Measure + CoolDown in seconds)", name, got, limit)
		}
	}
	if n == 0 {
		t.Fatal("no per-second series")
	}
}
