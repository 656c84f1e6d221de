package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stagedweb/internal/cluster"
	"stagedweb/internal/faults"
	"stagedweb/internal/harness"
	"stagedweb/internal/variant"
	"stagedweb/internal/webtest"
	"stagedweb/internal/workload"
)

func TestMain(m *testing.M) { webtest.Main(m) }

// artifact is one artifact check of an experiment row: the glob must
// match n result JSONs, each carrying every series named (with its CSV
// next to it), and each series in positive must peak above zero.
type artifact struct {
	glob     string
	n        int
	series   []string
	positive []string
}

// TestExperimentsSmoke drives every experiment end to end at -quick, one
// subtest per row of the experiments table plus the EB ramp: the output
// must carry the row's table, and its JSON artifacts the series each
// glob names.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment skipped in -short mode")
	}
	if webtest.RaceEnabled {
		t.Skip("race-detector overhead swamps the paper-time calibration; " +
			"run without -race for the experiment smoke")
	}
	clientProbes := []string{workload.ProbeActive, workload.ProbeOffered, workload.ProbeErrors, workload.ProbeWIRT}
	for _, tc := range []struct {
		name      string
		args      []string
		out       []string
		artifacts []artifact
	}{{
		name: "table2",
		args: []string{"-exp", "table2"},
		out:  []string{"Table 2", "treserve"},
	}, {
		name: "table3",
		args: []string{"-exp", "table3", "-ebs", "40", "-measure", "90s"},
		out:  []string{"Table 3", "TPC-W home", "speedup", "sweep report"},
		// The steady load driver's client probes land next to the
		// server's series in every artifact.
		artifacts: []artifact{
			{glob: "unmodified.json", n: 1, series: append([]string{harness.SeriesThroughputAll, variant.ProbeQueueSingle}, clientProbes...)},
			{glob: "modified.json", n: 1, series: append([]string{harness.SeriesThroughputAll, variant.ProbeQueueGeneral}, clientProbes...)},
		},
	}, {
		name:      "ebs-sweep",
		args:      []string{"-measure", "45s", "-ebs-sweep", "10,20"},
		out:       []string{"EB ramp", "ebs", "gain", "unmodified", "modified"},
		artifacts: []artifact{{glob: "*modified_ebs_[12]0.json", n: 4, series: []string{harness.SeriesThroughputAll}}},
	}, {
		name: "spike",
		args: []string{"-exp", "spike", "-ebs", "20", "-measure", "90s",
			"-load-set", "burst=40", "-load-set", "at=45s", "-load-set", "width=30s"},
		out:       []string{"spike comparison", "peak-ebs", "worst-wirt", "gain"},
		artifacts: []artifact{{glob: "*_spike.json", n: 2, series: clientProbes}},
	}, {
		name: "scaleout",
		args: []string{"-exp", "scaleout", "-ebs", "30", "-measure", "60s", "-variants", "modified", "-replicas", "1,2"},
		out:  []string{"replica scale-out", "modified/browsing", "modified/ordering", "gain at 2 vs 1 replicas"},
		artifacts: []artifact{{glob: "modified_*_replicas_*.json", n: 4,
			series: []string{variant.ProbeDBInUse, variant.ProbeDBWait, variant.ProbeDBQueries}}},
	}, {
		name: "mvcc",
		args: []string{"-exp", "mvcc", "-ebs", "30", "-measure", "60s", "-variants", "modified", "-replicas", "1,2"},
		out: []string{"storage-engine sweep", "lock/sync/browsing", "mvcc/async/ordering",
			"engine behavior", "mvcc/sync gain over lock/sync at 2 replicas"},
		artifacts: []artifact{{glob: "modified_*_replicas_*.json", n: 12, series: []string{
			variant.ProbeDBConflicts, variant.ProbeDBSnapshots, variant.ProbeDBReplLag,
			variant.ProbeDBStmtHits, variant.ProbeDBStmtMiss}}},
	}, {
		name: "planner",
		args: []string{"-exp", "planner", "-ebs", "30", "-measure", "60s", "-variants", "modified"},
		out: []string{"query planner", "planner behavior", "browsing/indexes=off", "ordering/indexes=on",
			"quick/lengthy boundary under indexing", "pages crossing the 2s cutoff"},
		// With indexes on, the planner must actually choose index access
		// paths, not merely export the series.
		artifacts: []artifact{
			{glob: "modified_*_indexes_*.json", n: 4,
				series: []string{variant.ProbeDBPlanScan, variant.ProbeDBPlanIndex, variant.ProbeDBPlanRows}},
			{glob: "modified_*_indexes_on.json", n: 2, positive: []string{variant.ProbeDBPlanIndex}},
		},
	}, {
		// Every cell, shards=1 included, runs behind the balancer.
		name: "shard",
		args: []string{"-exp", "shard", "-ebs", "30", "-measure", "60s", "-shards", "1,2", "-replicas", "1"},
		out:  []string{"shard scale-out", "fanned-out", "throughput gain at 2 vs 1 shards", "sweep report"},
		artifacts: []artifact{{glob: "shards_*_replicas_1_open-loop.json", n: 2, series: []string{
			cluster.ProbeShardRoute, cluster.ProbeShardFanout, cluster.ProbeShardImbalance, cluster.ProbeLBWait}}},
	}, {
		// The window holds the fault at 60s and the heal at 120s.
		name: "faults",
		args: []string{"-exp", "faults", "-ebs", "30", "-measure", "150s"},
		out:  []string{"fault injection", "replica-kill/sync", "shard-down/async", "throughput cost", "sweep report"},
		artifacts: []artifact{
			{glob: "replica-kill_*.json", n: 2, series: []string{faults.ProbeInjected, variant.ProbeDBEjected, variant.ProbeDBResync}},
			{glob: "shard-down_*.json", n: 2, series: []string{faults.ProbeInjected, cluster.ProbeLBRetry, cluster.ProbeLBBreaker}},
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var buf bytes.Buffer
			args := append([]string{"-quick", "-scale", "400", "-json", dir, "-csv", dir}, tc.args...)
			if err := run(args, &buf); err != nil {
				t.Fatalf("run(%v): %v\noutput:\n%s", args, err, buf.String())
			}
			for _, want := range tc.out {
				if !strings.Contains(buf.String(), want) {
					t.Errorf("output misses %q:\n%s", want, buf.String())
				}
			}
			for _, a := range tc.artifacts {
				files, _ := filepath.Glob(filepath.Join(dir, a.glob))
				if len(files) != a.n {
					t.Errorf("%s matches %d artifacts, want %d: %v", a.glob, len(files), a.n, files)
				}
				for _, f := range files {
					checkArtifact(t, f, a)
				}
			}
		})
	}
}

// checkArtifact reads one result JSON and checks it against a.
func checkArtifact(t *testing.T, path string, a artifact) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Series map[string]struct {
			Points []struct {
				Value float64 `json:"value"`
			} `json:"points"`
		} `json:"series"`
		Total int64 `json:"total_interactions"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("%s invalid: %v", path, err)
	}
	name := filepath.Base(path)
	if res.Total == 0 {
		t.Errorf("%s reports zero interactions", name)
	}
	for _, s := range a.series {
		if _, ok := res.Series[s]; !ok {
			t.Errorf("%s misses %s series", name, s)
		}
		csv, err := os.ReadFile(strings.TrimSuffix(path, ".json") + "_" + sanitize(s) + ".csv")
		if err != nil || !strings.HasPrefix(string(csv), "offset_seconds,value\n") {
			t.Errorf("%s: %s CSV missing or without its header (%v)", name, s, err)
		}
	}
	for _, s := range a.positive {
		peak := 0.0
		for _, p := range res.Series[s].Points {
			peak = max(peak, p.Value)
		}
		if peak <= 0 {
			t.Errorf("%s: %s never rose above zero", name, s)
		}
	}
}

func TestExperimentsFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-set", "nonsense"}, &buf); err == nil {
		t.Error("malformed -set accepted")
	}
	if err := run([]string{"-ebs-sweep", "10,frog"}, &buf); err == nil {
		t.Error("malformed -ebs-sweep accepted")
	}
	if err := run([]string{"-variants", " , "}, &buf); err == nil {
		t.Error("empty -variants accepted")
	}
	if err := run([]string{"-load", "no-such-profile"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "no-such-profile") {
		t.Errorf("unknown -load accepted: %v", err)
	}
	if err := run([]string{"-load-set", "nonsense"}, &buf); err == nil {
		t.Error("malformed -load-set accepted")
	}
	// -exp spike is standalone: combining it with other experiments or a
	// -load override must fail loudly, not silently drop either.
	if err := run([]string{"-exp", "spike,table3"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "standalone") {
		t.Errorf("-exp spike,table3 accepted: %v", err)
	}
	if err := run([]string{"-exp", "spike", "-load", "steady"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "spike profile") {
		t.Errorf("-exp spike -load steady accepted: %v", err)
	}
	if err := run([]string{"-exp", "spike", "-ebs-sweep", "10,20"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "separate modes") {
		t.Errorf("-exp spike -ebs-sweep accepted: %v", err)
	}
	// -exp scaleout is standalone too, and owns the mix axis itself.
	if err := run([]string{"-exp", "scaleout,table3"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "standalone") {
		t.Errorf("-exp scaleout,table3 accepted: %v", err)
	}
	if err := run([]string{"-exp", "scaleout", "-mix", "shopping"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "mixes itself") {
		t.Errorf("-exp scaleout -mix accepted: %v", err)
	}
	// -exp planner is standalone and owns both the mix and index axes.
	if err := run([]string{"-exp", "planner,table3"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "standalone") {
		t.Errorf("-exp planner,table3 accepted: %v", err)
	}
	if err := run([]string{"-exp", "planner", "-mix", "shopping"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "mixes itself") {
		t.Errorf("-exp planner -mix accepted: %v", err)
	}
	if err := run([]string{"-exp", "scaleout", "-replicas", "1,frog"}, &buf); err == nil {
		t.Error("malformed -replicas accepted")
	}
	if err := run([]string{"-exp", "scaleout", "-ebs-sweep", "10,20"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "separate modes") {
		t.Errorf("-exp scaleout -ebs-sweep accepted: %v", err)
	}
	// -exp mvcc follows the same standalone rules.
	if err := run([]string{"-exp", "mvcc,table3"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "standalone") {
		t.Errorf("-exp mvcc,table3 accepted: %v", err)
	}
	if err := run([]string{"-exp", "mvcc", "-mix", "shopping"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "mixes itself") {
		t.Errorf("-exp mvcc -mix accepted: %v", err)
	}
	if err := run([]string{"-exp", "mvcc", "-ebs-sweep", "10,20"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "separate modes") {
		t.Errorf("-exp mvcc -ebs-sweep accepted: %v", err)
	}
	// A row rejects an explicit setting of an axis it sweeps: the
	// setting would run every cell of the axis at one value.
	for _, args := range [][]string{
		{"-exp", "scaleout", "-set", "replicas=3"},
		{"-exp", "faults", "-set", "repl=async"},
	} {
		if err := run(args, &buf); err == nil || !strings.Contains(err.Error(), "sweeps") {
			t.Errorf("%v accepted: %v", args, err)
		}
	}
	// The population is -ebs alone: the load profiles have no ebs setting.
	if err := run([]string{"-ebs-sweep", "10,20", "-load-set", "ebs=5"}, &buf); err == nil ||
		!strings.Contains(err.Error(), `unknown setting "ebs"`) {
		t.Errorf("-load-set ebs=5 accepted: %v", err)
	}
	// Table 2 needs no server runs and must work for any -variants.
	buf.Reset()
	if err := run([]string{"-exp", "table2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "treserve") {
		t.Errorf("table2 output wrong:\n%s", buf.String())
	}
	// An unknown name is an error that lists the table, not a silent no-op.
	if err := run([]string{"-exp", "tabel3", "-quick"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "tabel3") || !strings.Contains(err.Error(), "table3") {
		t.Errorf("-exp tabel3 accepted: %v", err)
	}
}
