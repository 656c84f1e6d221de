package harness

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Scenario is one cell of an experiment: a unique label plus the full
// run configuration (variant name, load level, setting mutations).
// Build cells from a base config with Config.With:
//
//	harness.Scenario{
//		Name:   "modified/ebs=200",
//		Config: base.With(func(c *harness.Config) { c.EBs = 200 }),
//	}
type Scenario struct {
	// Name labels the cell in reports and artifact files; it must be
	// unique within a sweep.
	Name string `json:"name"`
	// Config is the complete run configuration.
	Config Config `json:"config"`
}

// SweepRun is one finished (or failed) scenario of a sweep.
type SweepRun struct {
	Scenario Scenario
	// Result is nil when the run failed.
	Result *Result
	Err    error
}

// SweepResult collects a sweep's runs in scenario order.
type SweepResult struct {
	Runs []SweepRun
}

// Result returns the named scenario's result, or nil if it is missing
// or failed.
func (sr *SweepResult) Result(name string) *Result {
	for _, r := range sr.Runs {
		if r.Scenario.Name == name {
			return r.Result
		}
	}
	return nil
}

// GainPercent generalises the paper's headline number to any pair of
// scenarios: the test scenario's total-interaction gain over base.
func (sr *SweepResult) GainPercent(base, test string) float64 {
	return ThroughputGainPercent(sr.Result(base), sr.Result(test))
}

// Report renders a comparative table of every run, with throughput gain
// computed against the sweep's first scenario.
func (sr *SweepResult) Report() string {
	var sb strings.Builder
	if len(sr.Runs) == 0 {
		return "sweep: no runs\n"
	}
	base := sr.Runs[0].Scenario.Name
	fmt.Fprintf(&sb, "sweep report (gain vs %s)\n", base)
	fmt.Fprintf(&sb, "%-32s %13s %8s %8s %8s %7s %9s %10s %8s\n",
		"scenario", "interactions", "errors", "p99", "p999", "slo", "recovery", "wall", "gain")
	sb.WriteString(strings.Repeat("-", 110) + "\n")
	for _, r := range sr.Runs {
		if r.Err != nil {
			fmt.Fprintf(&sb, "%-32s failed: %v\n", r.Scenario.Name, r.Err)
			continue
		}
		gain := "-"
		if r.Scenario.Name != base {
			gain = fmt.Sprintf("%+.1f%%", sr.GainPercent(base, r.Scenario.Name))
		}
		fmt.Fprintf(&sb, "%-32s %13d %8d %7.2fs %7.2fs %6.1f%% %9s %10v %8s\n",
			r.Scenario.Name, r.Result.TotalInteractions, r.Result.Errors,
			r.Result.P99PaperSec, r.Result.P999PaperSec, r.Result.SLOAttained*100,
			RecoveryCell(r.Result),
			r.Result.WallDuration.Round(time.Millisecond), gain)
	}
	return sb.String()
}

// RecoveryCell renders a run's recovery column: "-" for fault-free
// runs, "no-inj" when the plan never fired inside the window, "never"
// when SLO attainment did not come back, and the paper-time recovery
// otherwise.
func RecoveryCell(res *Result) string {
	if res.FaultPlan == "" {
		return "-"
	}
	switch {
	case res.FaultPaperSec < 0:
		return "no-inj"
	case res.RecoveryPaperSec < 0:
		return "never"
	default:
		return fmt.Sprintf("%.0fs", res.RecoveryPaperSec)
	}
}

// Sweep executes every scenario in order. onResult, when set, is called
// as each scenario finishes — progress reporting for CLIs. Runs never
// overlap: concurrent cells would charge each other's CPU as paper
// time. The returned SweepResult always has one entry per scenario in
// input order; the error joins every per-run failure, so partial
// results remain usable alongside a non-nil error.
func Sweep(scenarios []Scenario, onResult func(Scenario, *Result, error)) (*SweepResult, error) {
	seen := make(map[string]bool, len(scenarios))
	for _, sc := range scenarios {
		if sc.Name == "" {
			return nil, fmt.Errorf("harness: sweep scenario with empty name")
		}
		if seen[sc.Name] {
			return nil, fmt.Errorf("harness: duplicate sweep scenario %q", sc.Name)
		}
		seen[sc.Name] = true
	}

	sr := &SweepResult{Runs: make([]SweepRun, len(scenarios))}
	errs := make([]error, len(scenarios))
	for i, sc := range scenarios {
		res, err := Run(sc.Config)
		if err != nil {
			err = fmt.Errorf("%s: %w", sc.Name, err)
		}
		sr.Runs[i] = SweepRun{Scenario: sc, Result: res, Err: err}
		errs[i] = err
		if onResult != nil {
			onResult(sc, res, err)
		}
	}
	return sr, errors.Join(errs...)
}
