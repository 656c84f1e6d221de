package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json; unknown keys are an error, so
// the file cannot drift from the contract's exact key set.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the metrics this program prints must agree name
// for name: newResult refuses to print a run that lacks a catalogue
// metric, and this test holds the catalogue to the file.
func TestBenchmarkJSONAgreesWithTheCatalogue(t *testing.T) {
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}

	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bf.Paths)
	}
	if bf.RunSeconds < 10 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d: the windows never go below 10 s", bf.RunSeconds)
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(bf.Workloads), len(workloads))
	}
	used := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q breaks the naming rule", kind, name)
		}
		if used[name] {
			t.Errorf("name %q is used twice", name)
		}
		used[name] = true
	}
	for i, w := range workloads {
		got := bf.Workloads[i]
		checkName("workload", w.name)
		if got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), workloads.go has %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the catalogue", len(bf.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, d := range endToEnd {
		got := bf.EndToEnd[i]
		checkName("metric", d.name)
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, catalogue has %s %s %s %v", i, got, d.name, d.unit, d.better, d.bound)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		if d.name == "setup_s" {
			setup = d.unit == "s" && d.better == "lower"
		}
		checkDef(t, d)
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}

	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the catalogue", len(bf.PerLayer), len(perLayer))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per_layer metrics, limit 128", len(perLayer))
	}
	for i, d := range perLayer {
		got := bf.PerLayer[i]
		checkName("metric", d.name)
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, catalogue has %s %s %s", i, got, d.name, d.unit, d.better)
		}
		if d.layer == "" {
			t.Errorf("%s: no layer", d.name)
		}
		checkDef(t, d)
	}
}

func checkDef(t *testing.T, d metricDef) {
	t.Helper()
	if !unitRE.MatchString(d.unit) {
		t.Errorf("%s: unit %q breaks the unit rule", d.name, d.unit)
	}
	if d.better != "higher" && d.better != "lower" {
		t.Errorf("%s: better = %q", d.name, d.better)
	}
	if d.moves == "" {
		t.Errorf("%s: no interaction note", d.name)
	}
}

func TestValuesMissing(t *testing.T) {
	vs := values{"throughput_rps": 1}
	if miss := vs.missing(endToEnd); len(miss) != len(endToEnd)-1 {
		t.Errorf("missing = %v", miss)
	}
}
