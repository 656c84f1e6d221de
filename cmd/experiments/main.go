// Command experiments reproduces the DSN'09 evaluation: it sweeps the
// TPC-W browsing mix over server variants and prints the paper's tables
// and figures. Variants come from the internal/variant table, so a new
// entry there is available here with zero edits (-variants
// name1,name2,...). Every -exp mode is one row of the experiments table
// below; adding an experiment is adding a row.
//
// Usage:
//
//	experiments -exp all                 # everything (one run per variant)
//	experiments -exp table3              # response times
//	experiments -exp table4              # per-page throughput
//	experiments -exp table2              # t_reserve controller trace
//	experiments -exp fig7,fig8,fig9,fig10
//	experiments -exp spike               # flash-crowd comparison across variants
//	experiments -exp mvcc -variants modified       # storage-engine sweep
//	experiments -exp planner             # secondary-index / query-planner sweep
//	experiments -exp scaleout            # replica scale-out sweep
//	experiments -exp shard -shards 1,2,4           # cluster shard sweep
//	experiments -exp faults              # dependability scenario pack
//	experiments -scale 100 -ebs 400 -measure 50m   # paper-sized run
//	experiments -quick                   # reduced run (seconds)
//	experiments -variants unmodified,modified,modified-noreserve
//	experiments -set cutoff=3s -set minreserve=15  # variant settings
//	experiments -load spike -load-set burst=300 -load-set at=2m -load-set width=1m
//	experiments -mix shopping            # TPC-W shopping mix (default browsing)
//	experiments -ebs-sweep 100,200,300,400         # saturation-knee ramp
//	experiments -csv dir                 # dump every series as CSV
//	experiments -json dir                # per-scenario result JSON artifacts
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/cluster"
	"stagedweb/internal/faults"
	"stagedweb/internal/harness"
	"stagedweb/internal/sched"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
	"stagedweb/internal/workload"
)

// experiment is one -exp mode: a row of the experiments table.
type experiment struct {
	name string
	// standalone rows run alone; -exp all selects every other row.
	standalone bool
	// mixes marks a row that sweeps the TPC-W mixes itself, and profile
	// names the load profile a row runs itself: such a row rejects -mix,
	// or -load.
	mixes   bool
	profile string
	// sweeps lists the -set keys a row sweeps itself: an explicit
	// setting of one would override every cell of the axis, so such a row
	// rejects it.
	sweeps []string
	// build turns the parsed flags into the row's plan.
	build func(*setup) (plan, error)
	// report appends the sweep's per-cell report after the tables.
	report bool
}

// plan is what a row builds from the flags: the cells to sweep, the
// line that announces them, and how to print the finished sweep. A plan
// without cells needs no runs and prints at once.
type plan struct {
	intro string
	cells []harness.Scenario
	print func(*harness.SweepResult)
}

// experiments is every -exp mode, in the order their tables print. The
// paper's tables and figures share one sweep: one cell per variant.
var experiments = []experiment{
	{name: "table2", build: func(s *setup) (plan, error) {
		return plan{print: func(*harness.SweepResult) { fmt.Fprintln(s.out, table2()) }}, nil
	}},
	{name: "table3", build: paper(harness.Table3), report: true},
	{name: "table4", build: paper(harness.Table4), report: true},
	{name: "fig7", build: paper(func(base, _ *harness.Result) string { return harness.Figure7(base) }), report: true},
	{name: "fig8", build: paper(func(_, test *harness.Result) string { return harness.Figure8(test) }), report: true},
	{name: "fig9", build: paper(harness.Figure9), report: true},
	{name: "fig10", build: paper(harness.Figure10), report: true},
	{name: "spike", standalone: true, profile: workload.Spike, build: spikePlan},
	{name: "scaleout", standalone: true, mixes: true, sweeps: []string{"replicas"}, build: scaleoutPlan},
	{name: "mvcc", standalone: true, mixes: true, sweeps: []string{"replicas", "mvcc", "repl"}, build: mvccPlan},
	{name: "planner", standalone: true, mixes: true, sweeps: []string{"indexes"}, build: plannerPlan},
	{name: "shard", standalone: true, profile: workload.OpenLoop, sweeps: []string{"shards", "replicas"},
		build: shardPlan, report: true},
	{name: "faults", standalone: true, sweeps: []string{"shards", "replicas", "repl", "faults", "faultset"},
		build: faultsPlan, report: true},
}

// setup is the parsed command line the rows build their plans from.
type setup struct {
	out                     io.Writer
	exp, variants, loadProf string
	mix, ebsSweep           string
	replicas, shards        string
	csvDir, jsonDir         string
	scale                   float64
	quick                   bool
	ebs                     int
	measure                 time.Duration
	seed                    int64
	sets, loadSets          variant.SettingsFlag
	names                   []string // selected variants; the first is the baseline
	// noted is set once the paper group has said it needs two variants.
	noted bool
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	s := &setup{out: out}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.StringVar(&s.exp, "exp", "all", "comma-separated experiments: all, "+strings.Join(rowNames(false), ", ")+
		"; all runs every one of them, while "+strings.Join(rowNames(true), ", ")+" each run alone")
	fs.Float64Var(&s.scale, "scale", float64(clock.DefaultScale), "timescale: paper seconds per wall second")
	fs.IntVar(&s.ebs, "ebs", 0, "emulated browsers (0 = config default)")
	fs.DurationVar(&s.measure, "measure", 0, "measurement window in paper time (0 = config default)")
	fs.BoolVar(&s.quick, "quick", false, "use the reduced quick configuration")
	fs.StringVar(&s.csvDir, "csv", "", "directory to write per-series CSVs into")
	fs.StringVar(&s.jsonDir, "json", "", "directory to write per-scenario result JSON into")
	fs.Int64Var(&s.seed, "seed", 1, "workload seed")
	fs.StringVar(&s.variants, "variants", variant.Unmodified+","+variant.Modified,
		"comma-separated variants; the first is the comparison baseline (have: "+strings.Join(variant.Names(), ", ")+")")
	fs.StringVar(&s.loadProf, "load", "", "load profile driving the client side (have: "+strings.Join(workload.Names(), ", ")+"; empty = steady)")
	fs.StringVar(&s.mix, "mix", "", "TPC-W page mix: "+strings.Join(tpcw.MixNames(), ", ")+" (empty = browsing)")
	fs.StringVar(&s.ebsSweep, "ebs-sweep", "", "comma-separated EB levels (e.g. 100,200,300,400): run the saturation ramp across every variant")
	fs.StringVar(&s.replicas, "replicas", "1,2,4", "comma-separated replica counts swept by -exp scaleout and -exp mvcc (-exp shard uses the first level only)")
	fs.StringVar(&s.shards, "shards", "1,2,4", "comma-separated shard counts swept by -exp shard")
	fs.Var(&s.sets, "set", "variant setting `key=value` (repeatable), e.g. -set cutoff=3s")
	fs.Var(&s.loadSets, "load-set", "load-profile setting `key=value` (repeatable), e.g. -load-set burst=300")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if s.names = splitList(s.variants); len(s.names) == 0 {
		return fmt.Errorf("no variants selected")
	}
	if s.loadProf != "" {
		if _, ok := workload.Lookup(s.loadProf); !ok {
			return fmt.Errorf("unknown load profile %q (have: %s)",
				s.loadProf, strings.Join(workload.Names(), ", "))
		}
	}
	rows, err := s.pick()
	if err != nil {
		return err
	}

	// Rows that need no runs print at once; the rest share one sweep
	// (only the paper group has more than one row).
	var cells []harness.Scenario
	var prints []func(*harness.SweepResult)
	report := false
	for _, e := range rows {
		p, err := e.build(s)
		if err != nil {
			return err
		}
		if p.cells == nil {
			p.print(nil)
			continue
		}
		if cells == nil {
			cells = p.cells
			fmt.Fprintln(out, p.intro)
		}
		prints = append(prints, p.print)
		report = report || e.report
	}
	if cells == nil {
		return nil
	}
	progress := func(sc harness.Scenario, res *harness.Result, err error) {
		if err != nil {
			fmt.Fprintf(out, "  %s failed: %v\n", sc.Name, err)
			return
		}
		fmt.Fprintf(out, "  %s done in %v wall (%d interactions)\n",
			sc.Name, res.WallDuration.Round(time.Millisecond), res.TotalInteractions)
	}
	// A failed cell must not discard the completed ones: print whatever
	// ran, emit its artifacts, and surface the error at the end.
	sw, sweepErr := harness.Sweep(cells, progress)
	fmt.Fprintln(out)
	for _, show := range prints {
		show(sw)
	}
	if report {
		fmt.Fprintln(out, sw.Report())
	}
	return errors.Join(sweepErr, writeArtifacts(out, s.csvDir, s.jsonDir, sw))
}

// pick resolves -exp to the rows to run, in table order, or to the EB
// ramp when -ebs-sweep is set. It enforces the table's two rules: a
// standalone row runs alone (and not with -ebs-sweep), and no row is
// given an axis it sweeps itself.
func (s *setup) pick() ([]experiment, error) {
	want := map[string]bool{}
	for _, name := range splitList(s.exp) {
		if name != "all" && !slices.ContainsFunc(experiments, func(e experiment) bool { return e.name == name }) {
			return nil, fmt.Errorf("unknown experiment %q (have: all, %s)", name,
				strings.Join(append(rowNames(false), rowNames(true)...), ", "))
		}
		want[name] = true
	}
	var rows []experiment
	for _, e := range experiments {
		if want[e.name] || want["all"] && !e.standalone {
			rows = append(rows, e)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no experiments selected")
	}
	for _, e := range rows {
		switch {
		case !e.standalone:
		case s.ebsSweep != "":
			return nil, fmt.Errorf("-ebs-sweep and -exp %s are separate modes; run them separately", s.exp)
		case len(rows) > 1:
			return nil, fmt.Errorf("-exp %s is a standalone mode; run other experiments separately", e.name)
		}
	}
	if s.ebsSweep != "" {
		rows = []experiment{{name: "ebs-sweep", build: ebRampPlan}}
	}
	for _, e := range rows {
		for _, k := range e.sweeps {
			if _, ok := s.sets.Settings[k]; ok {
				return nil, fmt.Errorf("%s sweeps %s itself; drop -set %s", e.name, k, k)
			}
		}
		if e.mixes && s.mix != "" {
			return nil, fmt.Errorf("-exp %s sweeps the browsing and ordering mixes itself; drop -mix %s", e.name, s.mix)
		}
		if e.profile != "" && s.loadProf != "" {
			return nil, fmt.Errorf("-exp %s runs the %s profile; drop -load %s (use -load-set to tune it)",
				e.name, e.profile, s.loadProf)
		}
	}
	return rows, nil
}

// rowNames lists the names of the standalone rows, or of the others.
func rowNames(standalone bool) []string {
	var names []string
	for _, e := range experiments {
		if e.standalone == standalone {
			names = append(names, e.name)
		}
	}
	return names
}

// config returns a variant's base config with every flag applied.
func (s *setup) config(name string) harness.Config {
	cfg := harness.PaperConfig(name, clock.Timescale(s.scale))
	if s.quick {
		cfg = harness.QuickConfig(name, clock.Timescale(s.scale))
	}
	if s.ebs > 0 {
		cfg.EBs = s.ebs
	}
	if s.measure > 0 {
		cfg.Measure = s.measure
	}
	cfg.Seed = s.seed
	cfg.Set = s.sets.Settings.Clone()
	cfg.Load = s.loadProf
	cfg.LoadSet = s.loadSets.Settings.Clone()
	cfg.Mix = s.mix
	return cfg
}

// tier returns the variant's config with the per-backend connection pool
// sized for a database-tier sweep: a sixth of the dynamic-worker budget
// (general + lengthy), at least 2, so that connection acquisition
// (db.wait) and engine capacity, not worker counts, bound throughput.
// -set dbconns=K overrides it.
func (s *setup) tier(name string) harness.Config {
	cfg := s.config(name)
	general, _ := strconv.Atoi(cfg.Defaults["general"])
	lengthy, _ := strconv.Atoi(cfg.Defaults["lengthy"])
	cfg.Defaults["dbconns"] = strconv.Itoa(max(2, (general+lengthy)/6))
	return cfg
}

// paper plans one of the paper's tables or figures: one cell per
// variant, rendered from the first two. Further variants still run,
// land in the report, and emit artifacts.
func paper(render func(base, test *harness.Result) string) func(*setup) (plan, error) {
	return func(s *setup) (plan, error) {
		cells := make([]harness.Scenario, 0, len(s.names))
		for _, name := range s.names {
			cells = append(cells, harness.Scenario{Name: name, Config: s.config(name)})
		}
		return plan{
			intro: fmt.Sprintf("running %d variant(s) (%d EBs, %v measured, scale %.0fx)...",
				len(cells), cells[0].Config.EBs, cells[0].Config.Measure, s.scale),
			cells: cells,
			print: func(sw *harness.SweepResult) {
				switch {
				case len(s.names) < 2:
					if !s.noted {
						s.noted = true
						fmt.Fprintln(s.out, "(tables and figures compare two variants; pass -variants base,test to render them)")
					}
				case sw.Result(s.names[0]) != nil && sw.Result(s.names[1]) != nil:
					fmt.Fprintln(s.out, render(sw.Result(s.names[0]), sw.Result(s.names[1])))
				}
			},
		}, nil
	}
}

// spikePlan runs every variant through the spike profile, one cell
// named "variant/spike" each, and reports how each topology rode out the
// flash crowd: completed work, failures, the peak offered population,
// and the worst per-second client WIRT.
func spikePlan(s *setup) (plan, error) {
	out, names := s.out, s.names
	cells := make([]harness.Scenario, 0, len(names))
	for _, name := range names {
		cfg := s.config(name)
		cfg.Load = workload.Spike
		cells = append(cells, harness.Scenario{Name: name + "/" + workload.Spike, Config: cfg})
	}
	return plan{
		intro: fmt.Sprintf("flash crowd: %d variant(s) through the spike profile...", len(names)),
		cells: cells,
		print: func(sw *harness.SweepResult) {
			fmt.Fprintf(out, "spike comparison (client.* series through the burst)\n")
			cellTable(out, sw, "%-28s %13s %8s %9s %12s\n", "%-28s %13d %8d %9.0f %10.2fs\n", 74,
				[]any{"variant", "interactions", "errors", "peak-ebs", "worst-wirt"}, names, cellNames(cells),
				func(res *harness.Result) []any {
					return []any{res.TotalInteractions, res.Errors,
						harness.SeriesMax(res.Series[workload.ProbeActive]), harness.SeriesMax(res.Series[workload.ProbeWIRT])}
				})
			if len(names) >= 2 {
				fmt.Fprintf(out, "throughput gain through the crowd: %+.1f%%\n",
					sw.GainPercent(names[0]+"/"+workload.Spike, names[1]+"/"+workload.Spike))
			}
			fmt.Fprintln(out)
		},
	}, nil
}

// mixes are the two TPC-W mixes the database-tier rows sweep: read-heavy
// browsing and write-heavy ordering.
var mixes = []string{"browsing", "ordering"}

// scaleoutPlan runs every variant at every replica count under both
// mixes, with the per-backend connection pool deliberately scarcer than
// the worker pools so the database tier — not the workers — is the
// ceiling. Browsing throughput should rise with replica count (reads
// route round-robin across backends); ordering throughput pays the
// synchronous write fan-out on every backend.
func scaleoutPlan(s *setup) (plan, error) {
	levels, err := parseInts(s.replicas)
	if err != nil {
		return plan{}, fmt.Errorf("-replicas: %w", err)
	}
	cellName := func(col string, level int) string { return fmt.Sprintf("%s/replicas=%d", col, level) }
	var cols []string
	var cells []harness.Scenario
	for _, name := range s.names {
		for _, mix := range mixes {
			cols = append(cols, name+"/"+mix)
			for _, level := range levels {
				cells = append(cells, harness.Scenario{
					Name: cellName(name+"/"+mix, level),
					Config: s.tier(name).With(func(c *harness.Config) {
						c.Mix = mix
						c.Defaults["replicas"] = strconv.Itoa(level)
					}),
				})
			}
		}
	}
	out := s.out
	return plan{
		intro: fmt.Sprintf("scale-out: %d variant(s) x {browsing, ordering} x %d replica levels...",
			len(s.names), len(levels)),
		cells: cells,
		print: func(sw *harness.SweepResult) {
			fmt.Fprintf(out, "replica scale-out (interactions per measurement window)\n")
			levelTable(out, sw, "replicas", 9, 22, cols, levels, cellName, false)
			if len(levels) >= 2 {
				lo, hi := levels[0], levels[len(levels)-1]
				for _, col := range cols {
					fmt.Fprintf(out, "%s gain at %d vs %d replicas: %+.1f%%\n",
						col, hi, lo, sw.GainPercent(cellName(col, lo), cellName(col, hi)))
				}
			}
			fmt.Fprintln(out)
		},
	}, nil
}

// levelTable prints interactions per cell: a column per label, a line per
// level under the axis heading, and cell(label, level) naming each cell.
// With gain set, a last column shows the second label's throughput gain
// over the first at each level.
func levelTable(out io.Writer, sw *harness.SweepResult, axis string, axisWidth, width int, cols []string,
	levels []int, cell func(string, int) string, gain bool) {
	fmt.Fprintf(out, "%*s", axisWidth, axis)
	for _, col := range cols {
		fmt.Fprintf(out, " %*s", width, col)
	}
	if gain {
		fmt.Fprintf(out, " %8s", "gain")
	}
	fmt.Fprintln(out)
	for _, level := range levels {
		fmt.Fprintf(out, "%*d", axisWidth, level)
		for _, col := range cols {
			if res := sw.Result(cell(col, level)); res != nil {
				fmt.Fprintf(out, " %*d", width, res.TotalInteractions)
			} else {
				fmt.Fprintf(out, " %*s", width, "-")
			}
		}
		if gain {
			fmt.Fprintf(out, " %+7.1f%%", sw.GainPercent(cell(cols[0], level), cell(cols[1], level)))
		}
		fmt.Fprintln(out)
	}
}

// cellTable prints a header, a rule, and one line per label: the label
// and vals of the matching cell's result through rowFmt, whose first verb
// takes the label, or "(failed)" when that cell has no result.
func cellTable(out io.Writer, sw *harness.SweepResult, headFmt, rowFmt string, rule int, heads []any,
	labels, cells []string, vals func(*harness.Result) []any) {
	fmt.Fprintf(out, headFmt, heads...)
	fmt.Fprintln(out, strings.Repeat("-", rule))
	labelFmt, _, _ := strings.Cut(rowFmt, " ")
	for i, label := range labels {
		if res := sw.Result(cells[i]); res != nil {
			fmt.Fprintf(out, rowFmt, append([]any{label}, vals(res)...)...)
		} else {
			fmt.Fprintf(out, labelFmt+" (failed)\n", label)
		}
	}
}

func cellNames(cells []harness.Scenario) []string {
	names := make([]string, len(cells))
	for i, c := range cells {
		names[i] = c.Name
	}
	return names
}

// engineModes are the storage-engine configurations swept by -exp mvcc:
// the paper's per-table reader-writer locks with synchronous replica
// fan-out, MVCC snapshot reads with the same synchronous contract, and
// MVCC with asynchronous log shipping.
var engineModes = []struct {
	key, mvcc, repl string
}{
	{"lock/sync", "off", "sync"},
	{"mvcc/sync", "on", "sync"},
	{"mvcc/async", "on", "async"},
}

// mvccPlan runs one variant across every storage-engine mode, both TPC-W
// mixes, and every replica count. Under the read-heavy browsing mix,
// mvcc modes should beat lock/sync as replicas grow (snapshot reads
// never wait on writers); under the write-heavy ordering mix, repl=async
// should keep DML latency flat as replicas grow while repl=sync pays a
// per-replica apply wait. The db.conflicts and db.repllag series in each
// cell's artifacts show what the engine actually did.
func mvccPlan(s *setup) (plan, error) {
	levels, err := parseInts(s.replicas)
	if err != nil {
		return plan{}, fmt.Errorf("-replicas: %w", err)
	}
	name := s.names[0]
	cellName := func(col string, level int) string {
		return fmt.Sprintf("%s/%s/replicas=%d", name, col, level)
	}
	var cols []string
	var cells []harness.Scenario
	for _, eng := range engineModes {
		for _, mix := range mixes {
			cols = append(cols, eng.key+"/"+mix)
			for _, level := range levels {
				cells = append(cells, harness.Scenario{
					Name: cellName(eng.key+"/"+mix, level),
					Config: s.tier(name).With(func(c *harness.Config) {
						c.Mix = mix
						c.Defaults["replicas"] = strconv.Itoa(level)
						c.Defaults["mvcc"] = eng.mvcc
						c.Defaults["repl"] = eng.repl
					}),
				})
			}
		}
	}
	out := s.out
	return plan{
		intro: fmt.Sprintf("storage engines: %s x %d engine modes x {browsing, ordering} x %d replica levels...",
			name, len(engineModes), len(levels)),
		cells: cells,
		print: func(sw *harness.SweepResult) {
			fmt.Fprintf(out, "storage-engine sweep (interactions per measurement window)\n")
			levelTable(out, sw, "replicas", 9, 20, cols, levels, cellName, false)

			fmt.Fprintf(out, "\nengine behavior (sampled db.* series per cell)\n")
			cellTable(out, sw, "%-40s %12s %12s %12s\n", "%-40s %12.0f %12.0f %12.0f\n", 80,
				[]any{"cell", "conflicts", "snapshots", "max-repllag"}, cellNames(cells), cellNames(cells),
				func(res *harness.Result) []any {
					return []any{harness.SeriesMax(res.Series[variant.ProbeDBConflicts]),
						harness.SeriesMax(res.Series[variant.ProbeDBSnapshots]),
						harness.SeriesMax(res.Series[variant.ProbeDBReplLag])}
				})
			hi := levels[len(levels)-1]
			for _, mix := range mixes {
				for _, eng := range []string{"mvcc/sync", "mvcc/async"} {
					fmt.Fprintf(out, "%s gain over lock/sync at %d replicas (%s): %+.1f%%\n",
						eng, hi, mix, sw.GainPercent(cellName("lock/sync/"+mix, hi), cellName(eng+"/"+mix, hi)))
				}
			}
			fmt.Fprintln(out)
		},
	}, nil
}

// plannerCutoffPaperSec is the paper's quick/lengthy page boundary in
// paper seconds: pages whose mean WIRT sits under it belong in the
// quick class (general pool), over it in the lengthy class.
const plannerCutoffPaperSec = 2.0

// plannerPlan runs one variant under both TPC-W mixes with the extra
// secondary indexes off and on, re-running the paper's quick/lengthy
// page classification under indexing. With indexes on, the planner
// turns the best-sellers window and the subject listings into index
// range scans and probes — pages whose mean WIRT crosses back under
// the 2 s cutoff are flagged, because they would now belong in the
// quick pool. The title/author LIKE searches stay scans, so some
// lengthy pages must not move. The db.plan.* series in each cell's
// artifacts show what the planner actually chose.
func plannerPlan(s *setup) (plan, error) {
	name := s.names[0]
	idxModes := []string{"off", "on"}
	cellName := func(mix, ix string) string {
		return fmt.Sprintf("%s/%s/indexes=%s", name, mix, ix)
	}
	var cells []harness.Scenario
	for _, mix := range mixes {
		for _, ix := range idxModes {
			cells = append(cells, harness.Scenario{
				Name: cellName(mix, ix),
				Config: s.tier(name).With(func(c *harness.Config) {
					c.Mix = mix
					c.Defaults["indexes"] = ix
					// Light load: the quick/lengthy classification is about
					// each page's service demand, and a saturated run buries
					// that under queueing delay. A fifth of the configured
					// browsers keeps every pool below its knee so the means
					// measure the queries, not the queues.
					c.EBs = max(8, c.EBs/5)
				}),
			})
		}
	}
	out := s.out
	return plan{
		intro: fmt.Sprintf("query planner: %s x {browsing, ordering} x {indexes off, on}...", name),
		cells: cells,
		print: func(sw *harness.SweepResult) {
			fmt.Fprintf(out, "planner behavior (sampled db.plan.* series per cell)\n")
			cellTable(out, sw, "%-36s %13s %10s %10s %12s\n", "%-36s %13d %10.0f %10.0f %12.0f\n", 86,
				[]any{"cell", "interactions", "scans", "idx-paths", "rows-read"}, cellNames(cells), cellNames(cells),
				func(res *harness.Result) []any {
					return []any{res.TotalInteractions,
						harness.SeriesMax(res.Series[variant.ProbeDBPlanScan]),
						harness.SeriesMax(res.Series[variant.ProbeDBPlanIndex]),
						harness.SeriesMax(res.Series[variant.ProbeDBPlanRows])}
				})

			// The quick/lengthy boundary, re-run under indexing: per-page
			// mean WIRT with indexes off vs on, against the paper's 2 s cutoff.
			for _, mix := range mixes {
				off, on := sw.Result(cellName(mix, "off")), sw.Result(cellName(mix, "on"))
				if off == nil || on == nil {
					continue
				}
				fmt.Fprintf(out, "\nquick/lengthy boundary under indexing (%s mix, cutoff %.0fs)\n",
					mix, plannerCutoffPaperSec)
				fmt.Fprintf(out, "%-36s %12s %12s %9s %18s\n",
					"web page name", "indexes=off", "indexes=on", "speedup", "class")
				fmt.Fprintln(out, strings.Repeat("-", 92))
				crossed := 0
				for _, page := range tpcw.Pages {
					o, n := off.Pages[page], on.Pages[page]
					if o.Count == 0 || n.Count == 0 {
						continue
					}
					speedup := "-"
					if n.MeanPaperSec > 0 {
						speedup = fmt.Sprintf("%8.1fx", o.MeanPaperSec/n.MeanPaperSec)
					}
					class := classify(o.MeanPaperSec) + " -> " + classify(n.MeanPaperSec)
					if o.MeanPaperSec > plannerCutoffPaperSec && n.MeanPaperSec <= plannerCutoffPaperSec {
						class += "  <-- crossed"
						crossed++
					}
					fmt.Fprintf(out, "%-36s %12.2f %12.2f %9s %18s\n",
						tpcw.PageTitle(page), o.MeanPaperSec, n.MeanPaperSec, speedup, class)
				}
				fmt.Fprintf(out, "pages crossing the %.0fs cutoff with indexes on (%s): %d\n",
					plannerCutoffPaperSec, mix, crossed)
				fmt.Fprintf(out, "throughput gain from indexing (%s): %+.1f%%\n",
					mix, sw.GainPercent(cellName(mix, "off"), cellName(mix, "on")))
			}
			fmt.Fprintln(out)
		},
	}, nil
}

// classify names a page's side of the quick/lengthy boundary.
func classify(meanPaperSec float64) string {
	if meanPaperSec > plannerCutoffPaperSec {
		return "lengthy"
	}
	return "quick"
}

// shardPlan runs one variant behind the consistent-hash balancer at
// every shard count, holding the replica count at the first -replicas
// level, under the open-loop profile: offered load does not shrink when
// one shard saturates, so added shards turn directly into completed
// work. Every cell — shards=1 included — routes through the balancer,
// so the sweep isolates the shard count: each shard owns a customer
// slice plus a full worker and database stack of its own. The
// shard.route / shard.fanout / shard.imbalance series in each cell's
// artifacts show what the balancer actually did.
func shardPlan(s *setup) (plan, error) {
	levels, err := parseInts(s.shards)
	if err != nil {
		return plan{}, fmt.Errorf("-shards: %w", err)
	}
	repl, err := parseInts(s.replicas)
	if err != nil {
		return plan{}, fmt.Errorf("-replicas: %w", err)
	}
	replicas := repl[0]
	name := s.names[0]
	var cells []harness.Scenario
	for _, m := range levels {
		cells = append(cells, harness.Scenario{
			Name: fmt.Sprintf("shards=%d/replicas=%d/%s", m, replicas, workload.OpenLoop),
			Config: s.tier(name).With(func(c *harness.Config) {
				c.Defaults["shards"] = strconv.Itoa(m)
				c.Defaults["replicas"] = strconv.Itoa(replicas)
				c.Load = workload.OpenLoop
				if _, ok := c.LoadSet["rate"]; !ok {
					// Default arrival rate: enough Poisson sessions to saturate
					// a single shard, so added shards have queued work to absorb.
					c.LoadSet["rate"] = "8"
				}
			}),
		})
	}
	out := s.out
	return plan{
		intro: fmt.Sprintf("cluster: %s x %d shard levels at %d replica(s) under %s arrivals...",
			name, len(levels), replicas, workload.OpenLoop),
		cells: cells,
		print: func(sw *harness.SweepResult) {
			fmt.Fprintf(out, "shard scale-out (interactions per measurement window)\n")
			names := cellNames(cells)
			labels := make([]string, len(levels))
			for i, m := range levels {
				labels[i] = strconv.Itoa(m)
			}
			cellTable(out, sw, "%7s %13s %8s %10s %10s %10s\n", "%7s %13d %8d %10.0f %10.0f %10.2f\n", 64,
				[]any{"shards", "interactions", "errors", "routed", "fanned-out", "imbalance"}, labels, names,
				func(res *harness.Result) []any {
					return []any{res.TotalInteractions, res.Errors,
						harness.SeriesMax(res.Series[cluster.ProbeShardRoute]),
						harness.SeriesMax(res.Series[cluster.ProbeShardFanout]),
						harness.SeriesMax(res.Series[cluster.ProbeShardImbalance])}
				})
			if len(levels) >= 2 {
				fmt.Fprintf(out, "throughput gain at %d vs %d shards: %+.1f%%\n",
					levels[len(levels)-1], levels[0], sw.GainPercent(names[0], names[len(names)-1]))
			}
			fmt.Fprintln(out)
		},
	}, nil
}

// faultModes are the dependability cells swept by -exp faults: a
// fault-free control, a replica kill inside the database tier, and a
// whole-shard outage at the balancer. Each runs under both replica
// apply modes — synchronous fan-out feels an ejected replica directly,
// asynchronous shipping hides it behind the log.
var faultModes = []struct {
	key  string
	plan string
}{
	{"none", ""},
	{"replica-kill", faults.ReplicaKill},
	{"shard-down", faults.ShardDown},
}

// faultsPlan runs one variant on the full sharded, replicated stack
// through the dependability pack: {no-fault, replica-kill, shard-down}
// × {sync, async}. Faults strike one paper minute into the measurement
// window and heal a minute later; the report shows what the failover
// machinery did (injections, replica ejections and resyncs, balancer
// retries and breaker opens) and how long SLO attainment took to come
// back.
func faultsPlan(s *setup) (plan, error) {
	name := s.names[0]
	repls := []string{"sync", "async"}
	cellName := func(mode, repl string) string { return mode + "/" + repl }
	var cells []harness.Scenario
	for _, mode := range faultModes {
		for _, repl := range repls {
			cells = append(cells, harness.Scenario{
				Name: cellName(mode.key, repl),
				Config: s.tier(name).With(func(c *harness.Config) {
					c.Defaults["shards"] = "2"
					c.Defaults["replicas"] = "2"
					c.Defaults["repl"] = repl
					if mode.plan != "" {
						c.Defaults["faults"] = mode.plan
						c.Defaults["faultset"] = "at=60s,restart=60s"
					}
				}),
			})
		}
	}
	out := s.out
	return plan{
		intro: fmt.Sprintf("dependability: %s x %d fault modes x {sync, async} at 2 shards, 2 replicas...",
			name, len(faultModes)),
		cells: cells,
		print: func(sw *harness.SweepResult) {
			fmt.Fprintf(out, "fault injection (failover machinery and recovery per cell)\n")
			cellTable(out, sw, "%-24s %13s %8s %9s %8s %8s %8s %8s %9s\n",
				"%-24s %13d %8d %9.0f %8.0f %8.0f %8.0f %8.0f %9s\n", 104,
				[]any{"cell", "interactions", "errors", "injected", "ejected", "resyncs", "retries", "breaker", "recovery"},
				cellNames(cells), cellNames(cells),
				func(res *harness.Result) []any {
					return []any{res.TotalInteractions, res.Errors,
						harness.SeriesMax(res.Series[faults.ProbeInjected]),
						harness.SeriesMax(res.Series[variant.ProbeDBEjected]),
						harness.SeriesMax(res.Series[variant.ProbeDBResync]),
						harness.SeriesMax(res.Series[cluster.ProbeLBRetry]),
						harness.SeriesMax(res.Series[cluster.ProbeLBBreaker]), harness.RecoveryCell(res)}
				})
			for _, repl := range repls {
				for _, mode := range faultModes[1:] {
					fmt.Fprintf(out, "%s throughput cost (%s): %+.1f%%\n", mode.key, repl,
						sw.GainPercent(cellName("none", repl), cellName(mode.key, repl)))
				}
			}
			fmt.Fprintln(out)
		},
	}, nil
}

// ebRampPlan runs every variant at every EB level and prints the
// saturation-knee table, with throughput gain of the second variant over
// the first at each level.
func ebRampPlan(s *setup) (plan, error) {
	levels, err := parseInts(s.ebsSweep)
	if err != nil {
		return plan{}, fmt.Errorf("-ebs-sweep: %w", err)
	}
	names, out := s.names, s.out
	cellName := func(name string, level int) string { return fmt.Sprintf("%s/ebs=%d", name, level) }
	var cells []harness.Scenario
	for _, name := range names {
		for _, level := range levels {
			cells = append(cells, harness.Scenario{
				Name:   cellName(name, level),
				Config: s.config(name).With(func(c *harness.Config) { c.EBs = level }),
			})
		}
	}
	return plan{
		intro: fmt.Sprintf("EB ramp: %d variant(s) x %d load levels...", len(names), len(levels)),
		cells: cells,
		print: func(sw *harness.SweepResult) {
			fmt.Fprintf(out, "EB ramp (interactions per measurement window; the knee is where gains flatten)\n")
			levelTable(out, sw, "ebs", 6, 18, names, levels, cellName, len(names) >= 2)
			fmt.Fprintln(out)
		},
	}, nil
}

// writeArtifacts emits per-scenario JSON results and per-series CSVs,
// named after scenario and series — no per-variant file lists.
func writeArtifacts(out io.Writer, csvDir, jsonDir string, sw *harness.SweepResult) error {
	for _, r := range sw.Runs {
		if r.Result == nil {
			continue
		}
		base := sanitize(r.Scenario.Name)
		if jsonDir != "" {
			if err := writeFile(jsonDir, base+".json", func(w io.Writer) error {
				return harness.WriteJSON(w, r.Result)
			}); err != nil {
				return err
			}
		}
		for name, series := range r.Result.Series {
			if csvDir == "" {
				break
			}
			if err := writeFile(csvDir, base+"_"+sanitize(name)+".csv", func(w io.Writer) error {
				return harness.WriteCSV(w, series)
			}); err != nil {
				return err
			}
		}
	}
	if jsonDir != "" {
		fmt.Fprintln(out, "result JSON written to", jsonDir)
	}
	if csvDir != "" {
		fmt.Fprintln(out, "series CSVs written to", csvDir)
	}
	return nil
}

// writeFile creates dir if need be and writes one file into it.
func writeFile(dir, name string, write func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sanitize maps scenario and series names onto filesystem-safe tokens.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad level %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no levels")
	}
	return out, nil
}

// table2 replays the paper's Table 2 t_spare trace through the
// controller.
func table2() string {
	rc := sched.NewReserveController(20)
	tspare := []int{35, 24, 17, 21, 30, 36, 38, 37, 35, 39}
	treserve := make([]int, 0, len(tspare)+1)
	for _, s := range tspare {
		treserve = append(treserve, rc.Reserve())
		rc.Update(s)
	}
	treserve = append(treserve, rc.Reserve())
	return harness.Table2(tspare, treserve)
}
