package variant

import (
	"slices"
	"strings"
	"testing"

	"stagedweb/internal/sqldb"
	"stagedweb/internal/webtest"
)

func TestMain(m *testing.M) { webtest.Main(m) }

func testEnv(set Settings) Env {
	return Env{
		App: webtest.NewApp(),
		DB:  sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()}),
		Set: set,
	}
}

func TestRegistryBuiltins(t *testing.T) {
	want := []string{Modified, ModifiedNoReserve, Unmodified}
	if got := Names(); !slices.Equal(got, want) {
		t.Errorf("Names() = %v, want the sorted %v", got, want)
	}
	for _, name := range want {
		if _, ok := Lookup(name); !ok {
			t.Errorf("%q does not look up", name)
		}
	}
	if _, ok := Lookup("no-such-variant"); ok {
		t.Error("bogus lookup succeeded")
	}
}

func TestBuildUnmodified(t *testing.T) {
	v, _ := Lookup(Unmodified)
	inst, err := v.Build(testEnv(Settings{"workers": "2"}))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	if inst.Graph() == nil {
		t.Fatal("nil graph")
	}
	probes := probeNames(inst)
	if !probes[ProbeQueueSingle] || !probes[ProbeServed] {
		t.Fatalf("baseline probes wrong: %v", probes)
	}
	for _, p := range inst.Probes() {
		_ = p.Gauge() // gauges must be callable before Serve
	}
}

func TestBuildModifiedAndDerived(t *testing.T) {
	v, _ := Lookup(Modified)
	inst, err := v.Build(testEnv(Settings{"general": "4", "lengthy": "2", "minreserve": "3", "cutoff": "2s"}))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	probes := probeNames(inst)
	for _, want := range []string{ProbeQueueGeneral, ProbeQueueLengthy, ProbeReserve, ProbeSpare, ProbeServed} {
		if !probes[want] {
			t.Errorf("staged probes miss %s: %v", want, probes)
		}
	}
	if got := gauge(inst, ProbeReserve)(); got != 3 {
		t.Errorf("minreserve setting ignored: t_reserve = %v", got)
	}

	// The ablation pins t_reserve at zero even when the caller sets a
	// reserve, one the modified server would take or one it would
	// reject: its minreserve=0 wins over the caller's settings.
	nv, _ := Lookup(ModifiedNoReserve)
	for _, set := range []Settings{
		{"general": "4", "lengthy": "2", "minreserve": "3"},
		{"general": "4", "lengthy": "2", "minreserve": "9"},
	} {
		ninst, err := nv.Build(testEnv(set))
		if err != nil {
			t.Fatal(err)
		}
		defer ninst.Stop()
		if got := gauge(ninst, ProbeReserve)(); got != 0 {
			t.Errorf("%s with %v has t_reserve = %v", ModifiedNoReserve, set, got)
		}
	}
}

// TestReplicasSetting proves the database tier is pure configuration on
// both built-in variants, and that the variant owns it: replicas=N builds
// N backends, dbconns sizes each pool and defaults to the worker budget,
// the db.* probes appear, Stop closes every pooled connection, and
// nonsense values fail the strict decoder before any tier is built.
func TestReplicasSetting(t *testing.T) {
	for _, tc := range []struct {
		variant string
		set     Settings
		conns   int
	}{
		{Unmodified, Settings{"workers": "2", "replicas": "3", "dbconns": "2"}, 2},
		{Modified, Settings{"general": "4", "lengthy": "2", "replicas": "3", "dbconns": "2"}, 2},
		{Unmodified, Settings{"replicas": "3"}, 80},
		{Modified, Settings{"replicas": "3"}, 64 + 16},
	} {
		v, _ := Lookup(tc.variant)
		env := testEnv(tc.set)
		webtest.NoOpenConns(t, env.DB)
		inst, err := v.Build(env)
		if err != nil {
			t.Fatalf("%s %v: %v", tc.variant, tc.set, err)
		}
		tier := inst.(TierProvider).DBTier()
		if conns := tier.Backends()[0].OpenConns(); tier.Replicas() != 3 || conns != int64(tc.conns) {
			t.Errorf("%s %v: %d backends, the primary with %d connections, want 3 and %d",
				tc.variant, tc.set, tier.Replicas(), conns, tc.conns)
		}
		probes := probeNames(inst)
		for _, want := range []string{ProbeDBInUse, ProbeDBWait, ProbeDBQueries} {
			if !probes[want] {
				t.Errorf("%s probes miss %s: %v", tc.variant, want, probes)
			}
		}
		inst.Stop()
	}
	for _, name := range []string{Unmodified, Modified} {
		v, _ := Lookup(name)
		for key, set := range map[string]Settings{
			"replicas": {"replicas": "frog"},
			"dbconns":  {"replicas": "3", "dbconns": "many"},
		} {
			env := testEnv(set)
			if _, err := v.Build(env); err == nil || !strings.Contains(err.Error(), key) {
				t.Errorf("%s: malformed %s accepted: %v", name, key, err)
			}
			if env.DB.OpenConns() != 0 || env.DB.ReplLog() != nil {
				t.Errorf("%s: malformed %s built a tier", name, key)
			}
		}
	}
}

func TestBuildRejectsUnknownAndMalformed(t *testing.T) {
	for _, name := range []string{Unmodified, Modified} {
		v, _ := Lookup(name)
		if _, err := v.Build(testEnv(Settings{"bogus": "1"})); err == nil ||
			!strings.Contains(err.Error(), "bogus") {
			t.Errorf("%s accepted unknown setting: %v", name, err)
		}
	}
	v, _ := Lookup(Modified)
	if _, err := v.Build(testEnv(Settings{"cutoff": "fast"})); err == nil {
		t.Error("malformed duration accepted")
	}
	// Defaults the variant does not understand are ignored, not errors.
	env := testEnv(nil)
	env.Defaults = Settings{"workers": "4", "header": "2"}
	u, _ := Lookup(Unmodified)
	if _, err := u.Build(env); err != nil {
		t.Errorf("baseline rejected foreign default: %v", err)
	}
}

func TestBuildNilAppError(t *testing.T) {
	v, _ := Lookup(Modified)
	if _, err := v.Build(Env{}); err == nil {
		t.Fatal("empty env accepted")
	}
}

func probeNames(inst Instance) map[string]bool {
	out := map[string]bool{}
	for _, p := range inst.Probes() {
		out[p.Name] = true
	}
	return out
}

func gauge(inst Instance, name string) func() float64 {
	for _, p := range inst.Probes() {
		if p.Name == name {
			return p.Gauge
		}
	}
	return func() float64 { return -1 }
}
