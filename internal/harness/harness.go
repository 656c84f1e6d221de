// Package harness runs the paper's experiments end to end: it boots a
// database and a named server variant with Boot, the one builder of the
// system under test (cmd/poolserv serves what it boots too), drives a
// named load profile of emulated browsers against it, applies the
// ramp-up / measure / cool-down discipline of Section 4.1, and collects
// every series and table the DSN'09 evaluation reports (Tables 3 and 4,
// Figures 7–10).
//
// Both axes are values, not cases: Run looks Config.Variant up in the
// internal/variant table and Config.Load up in the internal/workload
// profile table, builds them, and samples every probe each exports into
// a named metrics.Series (server-side queue.*/sched.*, client-side
// client.*) — so a new table entry in either needs zero harness edits.
// Every server-side input (pool sizes, database tier, cluster, fault
// plan) is a settings key: Config.Defaults holds the experiment's values
// and Config.Set the explicit overrides, and Run passes both through.
// Sweeps over scenarios (variants, load profiles, setting mutations)
// are first-class too; see Scenario and Sweep.
package harness

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/faults"
	"stagedweb/internal/metrics"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
	"stagedweb/internal/workload"
)

// Series names the harness computes from completion events, alongside
// the variant's own probe series (variant.ProbeQueueSingle etc.). The
// "throughput." prefix is reserved for these.
const (
	// SeriesThroughputAll counts all completions per paper minute
	// (Figure 9).
	SeriesThroughputAll = "throughput.all"
	// SeriesThroughputStatic counts static completions (Figure 10a).
	SeriesThroughputStatic = "throughput.static"
	// SeriesThroughputDynamic counts dynamic completions (Figure 10b).
	SeriesThroughputDynamic = "throughput.dynamic"
	// SeriesThroughputQuick counts quick dynamic completions (Figure 10c).
	SeriesThroughputQuick = "throughput.quick"
	// SeriesThroughputLengthy counts lengthy dynamic completions
	// (Figure 10d).
	SeriesThroughputLengthy = "throughput.lengthy"
)

// sloThreshold is the paper-time WIRT threshold of the Result's
// SLO-attainment figure: the TPC-W web interaction response-time
// constraint for most pages.
const sloThreshold = 3 * time.Second

// Config describes one experimental run. All durations are paper time.
type Config struct {
	// Variant is the name of the server variant under test (see
	// internal/variant).
	Variant string `json:"variant"`

	Scale clock.Timescale `json:"scale"`

	// Workload: the offered load is a named load profile (see
	// internal/workload), configured like a variant.
	//
	// Load is the profile name; empty means "steady" (the paper's fixed
	// closed-loop population).
	Load string `json:"load,omitempty"`
	// LoadSet holds explicit profile settings (-load-set key=value,
	// scenario mutations); unknown keys are build errors.
	LoadSet variant.Settings `json:"load_set,omitempty"`
	// Mix names the TPC-W page mix ("browsing", "shopping",
	// "ordering"); empty means browsing, the paper's workload.
	Mix string `json:"mix,omitempty"`

	// EBs is the base emulated-browser population: -ebs sets it, and
	// QuickConfig and PaperConfig size it. It is the closed-loop load
	// profiles' base population, the level the spike's burst scales from.
	EBs      int           `json:"ebs"`
	RampUp   time.Duration `json:"ramp_up_ns"`
	Measure  time.Duration `json:"measure_ns"`
	CoolDown time.Duration `json:"cool_down_ns"`

	// ThinkExponential selects TPC-W's negative-exponential think time
	// (mean 7 s) instead of uniform 0.7–7 s.
	ThinkExponential bool  `json:"think_exponential"`
	Seed             int64 `json:"seed"`

	// Database.
	Populate tpcw.PopulateConfig `json:"populate"`
	Cost     sqldb.CostModel     `json:"cost"`
	// Work models render/static worker time (CPython-calibrated).
	Work server.WorkCost `json:"work"`

	// Set holds explicit setting overrides (-set key=value). A key the
	// variant does not understand is a build error.
	Set variant.Settings `json:"set,omitempty"`
	// Defaults holds the experiment's settings under the README's key
	// names: pool sizes (workers, header, ..., minreserve, cutoff), the
	// database tier (replicas, dbconns, mvcc, repl, indexes), the
	// cluster (shards) and the fault plan (faults, faultset). Set
	// wins over it, and a variant applies the keys it understands and
	// ignores the rest, so one config can drive any topology.
	Defaults variant.Settings `json:"defaults,omitempty"`
}

// LoadName resolves the load profile under test: Load if set, else
// steady, the paper's fixed closed-loop population of EBs browsers.
func (c Config) LoadName() string {
	if c.Load != "" {
		return c.Load
	}
	return workload.Steady
}

// With returns a copy of the config with the mutations applied. The Set,
// LoadSet and Defaults maps are cloned (and allocated if nil) first, so
// scenario mutations can write them freely without aliasing the base
// config.
func (c Config) With(muts ...func(*Config)) Config {
	c.Set, c.LoadSet, c.Defaults = writable(c.Set), writable(c.LoadSet), writable(c.Defaults)
	for _, mut := range muts {
		mut(&c)
	}
	return c
}

// writable returns a copy of s that a mutation may write, allocated
// when s is nil.
func writable(s variant.Settings) variant.Settings {
	if s == nil {
		return variant.Settings{}
	}
	return s.Clone()
}

// PaperConfig returns the full-paper-scale configuration for the named
// variant: 400 EBs, a 50-minute measurement window with 5-minute ramp-up
// and cool-down, the default population, and the paper's pool sizes —
// compressed through the given timescale (100 ⇒ the hour-long experiment
// takes 36 s).
func PaperConfig(variantName string, scale clock.Timescale) Config {
	// Calibration notes (README.md, "Design notes" and "Experiments"):
	//   - scans cost ~0.2 ms/row so the three slow pages land at 2.5-4 s
	//     of intrinsic data-generation time (over the 2 s cutoff, under
	//     the paper's 11-21 s loaded response times);
	//   - render/static work costs are CPython-calibrated (a 12 KiB
	//     Django page ~ 190 ms, an image ~ 10 ms), making non-database
	//     work a ~20% share of baseline worker time - the waste the
	//     staged design reclaims;
	//   - the connection budget (48) puts the baseline just past its
	//     saturation knee at 400 browsers while total database demand
	//     stays under capacity, the regime the paper's numbers imply.
	cost := sqldb.DefaultCostModel()
	cost.PerRowScanned = 200 * time.Microsecond
	return Config{
		Variant:          variantName,
		Scale:            scale,
		EBs:              400,
		RampUp:           5 * time.Minute,
		Measure:          50 * time.Minute,
		CoolDown:         5 * time.Minute,
		ThinkExponential: true,
		Seed:             1,
		Populate:         tpcw.PopulateConfig{},
		Cost:             cost,
		Work: server.WorkCost{
			RenderBase:  50 * time.Millisecond,
			RenderPerKB: 12 * time.Millisecond,
			StaticBase:  5 * time.Millisecond,
			StaticPerKB: time.Millisecond,
		},
		Defaults: variant.Settings{
			"workers": "48", "header": "32", "static": "32", "general": "40",
			"lengthy": "10", "render": "32", "minreserve": "10",
		},
	}
}

// QuickConfig returns a reduced configuration for tests and benchmarks:
// a smaller population with a proportionally heavier scan cost (so the
// slow-page class stays seconds-scale), fewer browsers, and a short
// window. One run takes a few seconds of wall time at scale 200.
func QuickConfig(variantName string, scale clock.Timescale) Config {
	cost := sqldb.DefaultCostModel()
	cost.PerRowScanned = 1500 * time.Microsecond // 2000 rows -> ~3 s scans
	return Config{
		Variant:  variantName,
		Scale:    scale,
		EBs:      100,
		RampUp:   30 * time.Second,
		Measure:  5 * time.Minute,
		CoolDown: 15 * time.Second,
		Seed:     1,
		Populate: tpcw.PopulateConfig{Items: 2000, Customers: 600, Orders: 520},
		Cost:     cost,
		Work:     server.DefaultWorkCost(),
		Defaults: variant.Settings{
			"workers": "26", "header": "16", "static": "16", "general": "21",
			"lengthy": "5", "render": "16", "minreserve": "5",
		},
	}
}

// PageStat is the per-page server+client view for Tables 3 and 4.
type PageStat struct {
	Page string `json:"page"`
	// Count is completed interactions during the measurement window
	// (Table 4).
	Count int64 `json:"count"`
	// Errors is failed client interactions attributed to this page
	// (image failures charge the parent page).
	Errors int64 `json:"errors"`
	// MeanPaperSec is the mean client-side WIRT in paper seconds
	// (Table 3).
	MeanPaperSec float64 `json:"mean_paper_sec"`
}

// Result is everything one run produces. WriteJSON serializes it in
// full (config, tables, series) for artifacts.
type Result struct {
	// Variant is the name of the variant that ran.
	Variant string `json:"variant"`
	Config  Config `json:"config"`

	// Per-page statistics (Tables 3 and 4), keyed by page path.
	Pages map[string]PageStat `json:"pages"`
	// TotalInteractions sums page interactions in the window.
	TotalInteractions int64 `json:"total_interactions"`
	// Errors is the count of failed client interactions.
	Errors int64 `json:"errors"`

	// Tail latency over the whole interaction stream, in paper seconds:
	// the p99 and p999 client-side WIRT of the measurement window.
	P99PaperSec  float64 `json:"p99_paper_sec"`
	P999PaperSec float64 `json:"p999_paper_sec"`
	// SLOPaperSec is the response-time threshold the run was held to
	// (sloThreshold) and SLOAttained the fraction of interactions
	// answered within it.
	SLOPaperSec float64 `json:"slo_paper_sec"`
	SLOAttained float64 `json:"slo_attained"`

	// Fault injection and recovery (zero values when the run was
	// fault-free). FaultPlan is the injected plan's name; FaultEvents
	// the injections it executed; FaultPaperSec the paper-time offset of
	// the first injection from the start of the measurement window (-1
	// if the plan never fired). RecoveryPaperSec is the MTTR-style
	// recovery time: paper seconds from the first injection until
	// windowed SLO attainment climbs back to recoveryFraction of its
	// pre-fault level (-1 = never recovered inside the window).
	FaultPlan        string         `json:"fault_plan,omitempty"`
	FaultEvents      []faults.Event `json:"fault_events,omitempty"`
	FaultPaperSec    float64        `json:"fault_paper_sec,omitempty"`
	RecoveryPaperSec float64        `json:"recovery_paper_sec,omitempty"`

	// Series holds every time series of the run, keyed by name: the
	// harness's throughput series ("throughput.*", one bucket per paper
	// minute) and one series per variant or load-generator probe
	// ("queue.*", "sched.*", "client.*", ..., sampled once per paper
	// second).
	Series map[string]*metrics.Series `json:"series"`

	// WallDuration is how long the run took on the host.
	WallDuration time.Duration `json:"wall_duration_ns"`
}

// Run executes one experiment in four steps: resolve the config against
// the load-profile and fault-plan tables; serve the system Boot starts,
// with the fault injector, the load generator and the sampler built
// against it; drive the ramp-up, measure and cool-down windows; and
// collect the Result. Whatever serve and drive start is stopped by one
// teardown, on success and on error.
func Run(cfg Config) (*Result, error) {
	r := &run{cfg: cfg, wallStart: time.Now()}
	defer r.teardown()
	for _, step := range []func() error{r.resolve, r.serve} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	r.drive()
	r.teardown()
	return r.collect(), nil
}

// run is one experiment in flight: its config, what each step hands
// the next, and the teardown stack.
type run struct {
	cfg       Config
	wallStart time.Time

	// Resolved by resolve.
	profile   workload.Profile
	mix       *tpcw.Mix
	faultPlan string           // "" runs fault-free
	faultSet  variant.Settings // the plan's settings (faultset=)
	set       variant.Settings // Config.Set less the fault plan's keys

	// Built by serve.
	sys                      *System
	res                      *Result
	measureStart, measureEnd time.Time
	gen                      *workload.Generator
	inj                      *faults.StepInjector // nil when fault-free
	sloWithin, sloTotal      *metrics.Series

	// The throughput series and server-side page counts complete feeds.
	thrAll, thrStatic, thrDynamic, thrQuick, thrLengthy *metrics.Series
	countMu                                             sync.Mutex
	pageCounts                                          map[string]int64

	stops []func() // the teardown stack, run last-pushed first
}

// onStop pushes f onto the teardown stack.
func (r *run) onStop(f func()) { r.stops = append(r.stops, f) }

// teardown pops and runs every pushed stop, last first. A second call
// has nothing left to run.
func (r *run) teardown() {
	for len(r.stops) > 0 {
		last := len(r.stops) - 1
		stop := r.stops[last]
		r.stops = r.stops[:last]
		stop()
	}
}

// resolve looks the load profile and mix up, and decodes the fault
// plan's settings (faults, faultset). They are split off Config.Set once
// and decoded with Config.Defaults by one decoder; they are experiment
// inputs, not server configuration, so they never reach a variant
// decoder. Boot looks the variant up and decodes the cluster's shards.
func (r *run) resolve() error {
	cfg := r.cfg
	var ok bool
	if r.profile, ok = workload.Lookup(cfg.LoadName()); !ok {
		return fmt.Errorf("harness: unknown load profile %q (have: %s)",
			cfg.LoadName(), strings.Join(workload.Names(), ", "))
	}
	var err error
	if r.mix, err = tpcw.MixByName(cfg.Mix); err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	if cfg.Scale <= 0 {
		return fmt.Errorf("harness: timescale must be positive")
	}

	own := variant.Settings{}
	r.set = cfg.Set.Clone()
	for _, k := range []string{"faults", "faultset"} {
		if v, ok := cfg.Set[k]; ok {
			own[k] = v
			delete(r.set, k)
		}
	}
	d := variant.NewSettingsDecoder(own, cfg.Defaults)
	r.faultPlan = d.String("faults", "")
	faultSet := d.String("faultset", "")
	if err := d.Finish(); err != nil {
		return fmt.Errorf("harness: %w", err)
	}

	if r.faultPlan == "none" {
		r.faultPlan = ""
	}
	if _, ok := faults.Lookup(r.faultPlan); r.faultPlan != "" && !ok {
		return fmt.Errorf("harness: unknown fault plan %q (have %s)", r.faultPlan, strings.Join(faults.Names(), ", "))
	}
	r.faultSet = variant.Settings{}
	if faultSet != "" {
		if r.faultPlan == "" {
			return fmt.Errorf("harness: faultset=%q given without a faults= plan", faultSet)
		}
		for _, kv := range strings.Split(faultSet, ",") {
			k, v, err := variant.ParseKV(kv)
			if err != nil {
				return fmt.Errorf("harness: faultset: %w", err)
			}
			r.faultSet[k] = v
		}
	}
	return nil
}

// serve boots the system on a loopback listener, anchors the
// measurement window, and builds against the system the fault injector
// (armed later by drive) and the load generator. It then starts one
// sampler that reads every probe they export, and the two SLO counters,
// once per paper second. Each thing it starts pushes its stop onto the
// teardown stack.
func (r *run) serve() error {
	cfg := r.cfg
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	boot := cfg
	boot.Set = r.set
	if r.sys, err = Boot(boot, l, r.complete); err != nil {
		return err
	}
	r.onStop(func() { _ = r.sys.Stop() })

	// The measurement window starts after ramp-up, counted from when the
	// system is up, so ramp-up absorbs no build or replica-clone time;
	// series anchored there drop ramp-up observations. No request reaches
	// complete before its series exist: only the generator, built below
	// and started by drive, knows the listener's address.
	r.measureStart = r.sys.Clock.Now().Add(cfg.Scale.Wall(cfg.RampUp))
	r.measureEnd = r.measureStart.Add(cfg.Scale.Wall(cfg.Measure))
	second := cfg.Scale.Wall(time.Second)
	perMinute := func() *metrics.Series {
		return metrics.NewSeries(r.measureStart, cfg.Scale.Wall(time.Minute), metrics.AggSum)
	}
	r.thrAll, r.thrStatic, r.thrDynamic, r.thrQuick, r.thrLengthy = perMinute(), perMinute(), perMinute(), perMinute(), perMinute()
	r.res = &Result{
		Variant: cfg.Variant,
		Config:  cfg,
		Pages:   make(map[string]PageStat, len(tpcw.Pages)),
		Series: map[string]*metrics.Series{
			SeriesThroughputAll:     r.thrAll,
			SeriesThroughputStatic:  r.thrStatic,
			SeriesThroughputDynamic: r.thrDynamic,
			SeriesThroughputQuick:   r.thrQuick,
			SeriesThroughputLengthy: r.thrLengthy,
		},
	}
	r.pageCounts = make(map[string]int64, len(tpcw.Pages))

	// The injector's schedule arms when the measurement window opens;
	// its build errors (bad targets, unknown plan settings) surface
	// before any load is driven.
	if r.faultPlan != "" {
		plan, _ := faults.Lookup(r.faultPlan)
		if r.inj, err = plan.Build(faults.Env{
			Clock:   r.sys.Clock,
			Scale:   cfg.Scale,
			Targets: faults.Targets{Tiers: r.sys.Tiers, Balancer: r.sys.Balancer},
			Set:     r.faultSet,
		}); err != nil {
			return err
		}
	}

	// The load profile builds the client-side generator against the
	// listener's address and the base population EBs.
	if r.gen, err = r.profile.Build(workload.Env{
		Config: workload.Config{
			Addr:             l.Addr().String(),
			EBs:              cfg.EBs,
			Clock:            r.sys.Clock,
			Scale:            cfg.Scale,
			Mix:              r.mix,
			Customers:        r.sys.Counts.Customers,
			Items:            r.sys.Counts.Items,
			FetchImages:      true, // TPC-W counts a page's images in the interaction
			ThinkExponential: cfg.ThinkExponential,
			Seed:             cfg.Seed,
		},
		Set: cfg.LoadSet,
	}); err != nil {
		return err
	}

	// Every probe of the instance, the generator and the injector
	// becomes a sampled series. So do the generator's cumulative
	// within/total SLO counters, the signal collect computes the
	// recovery column from.
	probes := append(r.sys.Instance.Probes(), r.gen.Probes()...)
	if r.inj != nil {
		probes = append(probes, r.inj.Probes()...)
	}
	srcs := make([]metrics.Source, 0, len(probes)+2)
	for _, p := range probes {
		if _, dup := r.res.Series[p.Name]; dup {
			return fmt.Errorf("harness: probe %q of %s/%s collides with an existing series",
				p.Name, cfg.Variant, cfg.LoadName())
		}
		dst := metrics.NewSeries(r.measureStart, second, metrics.AggLast)
		r.res.Series[p.Name] = dst
		srcs = append(srcs, metrics.Source{Gauge: p.Gauge, Dst: dst})
	}
	stats := r.gen.Stats()
	stats.SetSLOThreshold(cfg.Scale.Wall(sloThreshold))
	r.sloWithin = metrics.NewSeries(r.measureStart, second, metrics.AggLast)
	r.sloTotal = metrics.NewSeries(r.measureStart, second, metrics.AggLast)
	srcs = append(srcs,
		metrics.Source{Gauge: func() float64 { w, _ := stats.SLOCounts(); return float64(w) }, Dst: r.sloWithin},
		metrics.Source{Gauge: func() float64 { _, t := stats.SLOCounts(); return float64(t) }, Dst: r.sloTotal})

	// Sampling ends with the cool-down, not when teardown has drained
	// the generator, so every run's series have the same length.
	coolDownEnd := r.measureEnd.Add(cfg.Scale.Wall(cfg.CoolDown))
	r.onStop(clock.Every(r.sys.Clock, second, metrics.SampleUntil(coolDownEnd, srcs)))
	return nil
}

// complete observes one server completion: into the throughput series
// always, and into the server-side page counts inside the measurement
// window.
func (r *run) complete(ev server.CompletionEvent) {
	r.thrAll.Observe(ev.Done, 1)
	if ev.Class == server.ClassStatic {
		r.thrStatic.Observe(ev.Done, 1)
		return
	}
	r.thrDynamic.Observe(ev.Done, 1)
	// Classify by the paper's fixed slow-page set so every variant
	// buckets identically in Figure 10.
	if tpcw.SlowPages[ev.Page] {
		r.thrLengthy.Observe(ev.Done, 1)
	} else {
		r.thrQuick.Observe(ev.Done, 1)
	}
	if ev.Done.Before(r.measureStart) || ev.Done.After(r.measureEnd) {
		return
	}
	r.countMu.Lock()
	r.pageCounts[ev.Page]++
	r.countMu.Unlock()
}

// drive runs the load through ramp-up (not recorded), measure and
// cool-down. The fault schedule arms when the measurement window
// opens, so plan offsets are paper time from the start of measurement.
func (r *run) drive() {
	if r.inj != nil {
		r.onStop(r.inj.Stop) // armed below, when the window opens
	}
	clk, stats := r.sys.Clock, r.gen.Stats()
	stats.SetRecording(false)
	r.gen.Start()
	r.onStop(r.gen.Stop)

	clk.Sleep(r.measureStart.Sub(clk.Now()))
	stats.Reset()
	stats.SetRecording(true)
	if r.inj != nil {
		r.inj.Start()
	}
	clk.Sleep(r.cfg.Scale.Wall(r.cfg.Measure))
	stats.SetRecording(false)
	clk.Sleep(r.cfg.Scale.Wall(r.cfg.CoolDown))
}

// collect assembles the Result after teardown: per-page stats, tail
// latency, SLO attainment and the fault outcome.
func (r *run) collect() *Result {
	res, scale, stats := r.res, r.cfg.Scale, r.gen.Stats()
	// Client-side WIRT means and errors, server-side counts. Clustered
	// runs count client-side instead: fan-out pages complete on every
	// shard, so server-side counts would tally one interaction once per
	// shard.
	r.countMu.Lock()
	defer r.countMu.Unlock()
	for _, page := range tpcw.Pages {
		client := stats.Page(page)
		count := r.pageCounts[page]
		if r.sys.Balancer != nil {
			count = client.Count
		}
		res.Pages[page] = PageStat{
			Page:         page,
			Count:        count,
			Errors:       client.Errors,
			MeanPaperSec: scale.PaperSeconds(client.Mean),
		}
		res.TotalInteractions += count
	}
	res.Errors = stats.Errors()

	// Tail latency and SLO attainment over the whole interaction stream.
	res.P99PaperSec = scale.PaperSeconds(stats.OverallQuantile(0.99))
	res.P999PaperSec = scale.PaperSeconds(stats.OverallQuantile(0.999))
	res.SLOPaperSec = sloThreshold.Seconds()
	res.SLOAttained = stats.FractionWithin(scale.Wall(sloThreshold))

	// Fault outcome: when the first injection landed and how long SLO
	// attainment took to come back.
	if r.inj != nil {
		res.FaultPlan = r.faultPlan
		res.FaultEvents = r.inj.Events()
		res.FaultPaperSec = -1
		res.RecoveryPaperSec = -1
		if len(res.FaultEvents) > 0 {
			fault := res.FaultEvents[0].At
			res.FaultPaperSec = fault.Seconds()
			res.RecoveryPaperSec = recoveryPaperSec(r.sloWithin, r.sloTotal, fault)
		}
	}
	res.WallDuration = time.Since(r.wallStart)
	return res
}

// Recovery detection: attainment is evaluated over a trailing window of
// recoveryWindow paper seconds, and the system counts as recovered when
// the windowed value climbs back to recoveryFraction of the cumulative
// pre-fault attainment.
const (
	recoveryWindow   = 3
	recoveryFraction = 0.95
)

// recoveryPaperSec computes the MTTR-style recovery time from the
// sampled cumulative SLO counters: paper seconds from the fault offset
// until the first post-fault paper second whose trailing-window SLO
// attainment reaches recoveryFraction of the pre-fault level. It
// returns -1 when attainment never recovers inside the sampled window
// (or there was no pre-fault traffic to set a baseline).
func recoveryPaperSec(within, total *metrics.Series, fault time.Duration) float64 {
	w := cumulative(within)
	t := cumulative(total)
	n := len(w)
	if len(t) < n {
		n = len(t)
	}
	// Bucket i covers paper second i of the measurement window (the
	// series' bucket width is one paper second of wall time).
	faultIdx := int(fault / time.Second)
	if faultIdx < 0 || faultIdx >= n || t[faultIdx] == 0 {
		return -1
	}
	baseline := w[faultIdx] / t[faultIdx]
	if baseline <= 0 {
		return -1
	}
	for s := faultIdx + 1; s < n; s++ {
		// Trailing window (from, s], clamped so pre-fault seconds never
		// mask post-fault degradation.
		from := s - recoveryWindow
		if from < faultIdx {
			from = faultIdx
		}
		dt := t[s] - t[from]
		if dt <= 0 {
			continue
		}
		att := (w[s] - w[from]) / dt
		if att >= recoveryFraction*baseline {
			return float64(s - faultIdx)
		}
	}
	return -1
}

// cumulative reads an AggLast-sampled cumulative counter series,
// forward-filling empty buckets: the counter is non-decreasing, so a
// bucket reading below its predecessor is a missed sample, not a reset.
func cumulative(s *metrics.Series) []float64 {
	pts := s.Points()
	out := make([]float64, len(pts))
	prev := 0.0
	for i, p := range pts {
		v := p.Value
		if v < prev {
			v = prev
		}
		out[i] = v
		prev = v
	}
	return out
}

// ThroughputGainPercent computes the headline number between any pair of
// runs: the test run's total-interaction gain over the base run (the
// paper reports +31.3% for modified over unmodified).
func ThroughputGainPercent(base, test *Result) float64 {
	if base == nil || test == nil || base.TotalInteractions == 0 {
		return 0
	}
	return (float64(test.TotalInteractions) - float64(base.TotalInteractions)) /
		float64(base.TotalInteractions) * 100
}
