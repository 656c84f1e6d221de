package faults_test

import (
	"slices"
	"testing"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/dbtier"
	"stagedweb/internal/faults"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/variant"
	"stagedweb/internal/webtest"
)

func TestMain(m *testing.M) { webtest.Main(m) }

func TestRegistryHasBuiltins(t *testing.T) {
	want := []string{faults.ConnDrop, faults.Leak, faults.ReplicaKill, faults.ShardDown, faults.SlowBackend}
	if got := faults.Names(); !slices.Equal(got, want) {
		t.Errorf("Names() = %v, want the sorted %v", got, want)
	}
	for _, name := range want {
		if _, ok := faults.Lookup(name); !ok {
			t.Errorf("plan %q does not look up", name)
		}
	}
	if _, ok := faults.Lookup("no-such-plan"); ok {
		t.Error("bogus lookup succeeded")
	}
}

func newFaultDB(t *testing.T) *sqldb.DB { return webtest.KVDB(t, 3, "seed") }

// waitCond polls (in wall time) until cond holds — the manual clock
// fires waiters synchronously, but the woken goroutines still need host
// scheduler time to act.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if !webtest.WaitUntil(5*time.Second, cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}

// replayReplicaKill drives one full replica-kill run on a manual clock:
// kill at 5 s, restart at 15 s, then enough health ticks to eject,
// resync, and reintegrate the replica. It returns the injector's event
// log and the tier's ejection/reintegration counters.
func replayReplicaKill(t *testing.T) ([]faults.Event, int64, int64) {
	t.Helper()
	db := newFaultDB(t)
	mc := clock.NewManual(time.Unix(0, 0))
	tier := dbtier.New(db, dbtier.Options{Replicas: 2, Conns: 2, Clock: mc, Scale: clock.RealTime})
	defer tier.Close()

	plan, ok := faults.Lookup(faults.ReplicaKill)
	if !ok {
		t.Fatal("replica-kill does not look up")
	}
	inj, err := plan.Build(faults.Env{
		Clock:   mc,
		Scale:   clock.RealTime,
		Targets: faults.Targets{Tiers: []*dbtier.Tier{tier}},
		Set:     variant.Settings{"at": "5s", "target": "1", "restart": "10s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	defer inj.Stop()
	// Two injector steps (kill, restart) plus the tier's health ticker.
	mc.BlockUntilWaiters(3)

	// Advance one paper second at a time so every health tick gets host
	// time to run before the next fires (undelivered manual ticks are
	// dropped, like time.Ticker's).
	advance := func(n int) {
		for i := 0; i < n; i++ {
			mc.Advance(time.Second)
			time.Sleep(200 * time.Microsecond)
		}
	}
	advance(5) // kill fires at 5s
	waitCond(t, "kill injection", func() bool { return len(inj.Events()) >= 1 })
	advance(5) // health ticks past the fail threshold
	waitCond(t, "replica ejection", func() bool { return tier.Ejected() >= 1 })
	advance(5) // restart fires at 15s
	waitCond(t, "restart injection", func() bool { return len(inj.Events()) >= 2 })
	advance(10) // health ticks through resync and reintegration
	waitCond(t, "replica reintegration", func() bool { return tier.Resyncs() >= 1 })
	return inj.Events(), tier.Ejected(), tier.Resyncs()
}

// TestReplicaKillReplayDeterministic replays the same plan twice on
// fresh manual clocks and demands bit-identical outcomes: the same
// injection timestamps and the same ejection/reintegration counts —
// the property that makes fault experiments reproducible.
func TestReplicaKillReplayDeterministic(t *testing.T) {
	ev1, ej1, rs1 := replayReplicaKill(t)
	ev2, ej2, rs2 := replayReplicaKill(t)

	if len(ev1) != 2 || len(ev2) != 2 {
		t.Fatalf("event counts: %d and %d, want 2 and 2", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Errorf("event %d differs across replays: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}
	if ev1[0].At != 5*time.Second || ev1[1].At != 15*time.Second {
		t.Errorf("injection offsets = %v, %v; want 5s, 15s", ev1[0].At, ev1[1].At)
	}
	if ej1 != ej2 {
		t.Errorf("ejected counts differ across replays: %d vs %d", ej1, ej2)
	}
	if rs1 != rs2 {
		t.Errorf("resync counts differ across replays: %d vs %d", rs1, rs2)
	}
	if ej1 != 1 || rs1 != 1 {
		t.Errorf("ejected/resyncs = %d/%d, want 1/1", ej1, rs1)
	}
}

// TestInjectorStopCancelsPending proves Stop cancels injections that
// have not fired yet: nothing fires after Stop even if the clock later
// passes the scheduled offset.
func TestInjectorStopCancelsPending(t *testing.T) {
	db := newFaultDB(t)
	mc := clock.NewManual(time.Unix(0, 0))
	tier := dbtier.New(db, dbtier.Options{Replicas: 2, Conns: 2, Clock: mc, Scale: clock.RealTime})
	defer tier.Close()

	plan, _ := faults.Lookup(faults.ReplicaKill)
	inj, err := plan.Build(faults.Env{
		Clock:   mc,
		Scale:   clock.RealTime,
		Targets: faults.Targets{Tiers: []*dbtier.Tier{tier}},
		Set:     variant.Settings{"at": "30s", "restart": "0s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	mc.BlockUntilWaiters(2) // kill step + health ticker
	inj.Stop()
	mc.Advance(time.Minute)
	if n := len(inj.Events()); n != 0 {
		t.Fatalf("%d injections fired after Stop", n)
	}
	if tier.Ejected() != 0 {
		t.Fatal("backend was killed after Stop")
	}
}
