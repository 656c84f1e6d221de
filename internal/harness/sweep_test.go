package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/metrics"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
)

// sweepConfig is a tiny run (well under a second of wall time) so sweep
// tests can execute several cells.
func sweepConfig(variantName string) Config {
	cfg := QuickConfig(variantName, clock.Timescale(400))
	cfg.EBs = 10
	cfg.RampUp = 2 * time.Second
	cfg.Measure = 15 * time.Second
	cfg.CoolDown = 2 * time.Second
	cfg.Populate = tpcw.PopulateConfig{Items: 100, Customers: 30, Orders: 20}
	return cfg
}

func TestSweepMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep integration skipped in -short mode")
	}
	base := sweepConfig(variant.Unmodified)
	scenarios := []Scenario{
		{Name: variant.Unmodified, Config: base},
		{Name: variant.Modified, Config: base.With(func(c *Config) { c.Variant = variant.Modified })},
		{Name: "modified/ebs=20", Config: base.With(func(c *Config) {
			c.Variant = variant.Modified
			c.EBs = 20
		})},
	}
	var order []string
	sw, err := Sweep(scenarios,
		func(sc Scenario, res *Result, err error) { order = append(order, sc.Name) })
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Runs) != 3 || len(order) != 3 {
		t.Fatalf("runs=%d notified=%d", len(sw.Runs), len(order))
	}
	for _, r := range sw.Runs {
		if r.Err != nil || r.Result == nil {
			t.Fatalf("%s failed: %v", r.Scenario.Name, r.Err)
		}
		if r.Result.TotalInteractions == 0 {
			t.Errorf("%s completed nothing", r.Scenario.Name)
		}
	}
	if sw.Result(variant.Modified) == nil || sw.Result("missing") != nil {
		t.Fatal("Result lookup wrong")
	}
	// GainPercent works on any pair, matching the legacy helper.
	want := ThroughputGainPercent(sw.Result(variant.Unmodified), sw.Result(variant.Modified))
	if got := sw.GainPercent(variant.Unmodified, variant.Modified); got != want {
		t.Fatalf("GainPercent = %v, want %v", got, want)
	}
	rep := sw.Report()
	for _, name := range []string{variant.Unmodified, variant.Modified, "modified/ebs=20", "gain"} {
		if !strings.Contains(rep, name) {
			t.Errorf("report misses %q:\n%s", name, rep)
		}
	}
}

func TestSweepValidationAndCancel(t *testing.T) {
	dup := []Scenario{{Name: "x", Config: sweepConfig(variant.Modified)}, {Name: "x", Config: sweepConfig(variant.Modified)}}
	if _, err := Sweep(dup, nil); err == nil {
		t.Fatal("duplicate scenario names accepted")
	}
	if _, err := Sweep([]Scenario{{Config: sweepConfig(variant.Modified)}}, nil); err == nil {
		t.Fatal("empty scenario name accepted")
	}

	// A failing cell surfaces in both the joined error and its run slot,
	// without aborting the other cells.
	bad := sweepConfig("no-such-variant")
	good := sweepConfig(variant.Unmodified)
	good.EBs, good.Measure = 4, 5*time.Second
	sw, err := Sweep([]Scenario{
		{Name: "bad", Config: bad},
		{Name: "good", Config: good},
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "no-such-variant") {
		t.Fatalf("bad cell error lost: %v", err)
	}
	if sw.Result("good") == nil {
		t.Fatal("good cell did not run after bad cell")
	}
	if len(sw.Runs) != 2 || sw.Runs[0].Result != nil || sw.Runs[0].Err == nil {
		t.Fatalf("failed cell's run slot wrong: %+v", sw.Runs[0])
	}
}

func TestResultJSON(t *testing.T) {
	start := time.Now()
	s := metrics.NewSeries(start, time.Second, metrics.AggSum)
	s.Observe(start, 2)
	s.Observe(start.Add(time.Second), 5)
	res := &Result{
		Variant: variant.Modified,
		Config:  QuickConfig(variant.Modified, clock.DefaultScale),
		Pages: map[string]PageStat{
			tpcw.PageHome: {Page: tpcw.PageHome, Count: 3, MeanPaperSec: 0.5},
		},
		TotalInteractions: 3,
		Series: map[string]*metrics.Series{
			SeriesThroughputAll:  s,
			variant.ProbeReserve: s,
		},
		WallDuration: time.Second,
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	for _, key := range []string{"variant", "config", "pages", "total_interactions", "errors", "series", "wall_duration_ns"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("artifact misses %q", key)
		}
	}
	series := decoded["series"].(map[string]any)
	all := series[SeriesThroughputAll].(map[string]any)
	if all["agg"] != "sum" {
		t.Errorf("agg = %v", all["agg"])
	}
	pts := all["points"].([]any)
	if len(pts) != 2 {
		t.Fatalf("points = %v", pts)
	}
	p0 := pts[0].(map[string]any)
	if p0["offset_seconds"].(float64) != 0 || p0["value"].(float64) != 2 {
		t.Errorf("first point wrong: %v", p0)
	}
	if decoded["config"].(map[string]any)["variant"] != variant.Modified {
		t.Error("config.variant missing")
	}
}
