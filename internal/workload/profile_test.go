package workload

import (
	"slices"
	"testing"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/variant"
)

func TestRegistry(t *testing.T) {
	want := []string{OpenLoop, Spike, Steady}
	if got := Names(); !slices.Equal(got, want) {
		t.Errorf("Names() = %v, want the sorted %v", got, want)
	}
	for _, name := range want {
		if _, ok := Lookup(name); !ok {
			t.Errorf("profile %q does not look up", name)
		}
	}
	if _, ok := Lookup("no-such-profile"); ok {
		t.Error("bogus lookup succeeded")
	}
}

// build resolves and builds a named profile, failing the test on error.
func build(t *testing.T, name string, env Env) *Generator {
	t.Helper()
	p, ok := Lookup(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	g, err := p.Build(env)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testEnv() Env {
	return Env{Config: Config{Addr: "127.0.0.1:0", Scale: clock.Timescale(1000), Seed: 1}}
}

func TestUnknownSettingRejected(t *testing.T) {
	for _, name := range Names() {
		p, _ := Lookup(name)
		env := testEnv()
		env.Set = variant.Settings{"bogus": "1"}
		if _, err := p.Build(env); err == nil {
			t.Errorf("%s: unknown setting accepted", name)
		}
	}
}

// TestSchedules pins the population schedules the built-in profiles
// compute, including the ebs default taken from Env.EBs.
func TestSchedules(t *testing.T) {
	env := testEnv()
	env.EBs = 100

	spike := build(t, Spike, env)
	env.Set = variant.Settings{"burst": "50", "at": "2m", "width": "1m"}
	spikeSet := build(t, Spike, env)
	env.Set, env.EBs = nil, 30
	spike30 := build(t, Spike, env)

	cases := []struct {
		name string
		g    *Generator
		at   time.Duration
		want int
	}{
		// spike defaults: base=ebs default, burst=2x, at=1m, width=30s.
		{"spike-before", spike, 30 * time.Second, 100},
		{"spike-during", spike, 75 * time.Second, 300},
		{"spike-after", spike, 2 * time.Minute, 100},
		// explicit spike window [2m, 3m) adding 50.
		{"spike-set-before", spikeSet, time.Minute, 100},
		{"spike-set-during", spikeSet, 150 * time.Second, 150},
		{"spike-set-after", spikeSet, 3 * time.Minute, 100},
		// Env.EBs 30 moves the spike's default levels with it.
		{"spike30-before", spike30, 59 * time.Second, 30},
		{"spike30-during", spike30, 61 * time.Second, 90},
	}
	for _, c := range cases {
		if got := c.g.schedule(c.at); got != c.want {
			t.Errorf("%s: schedule(%v) = %d, want %d", c.name, c.at, got, c.want)
		}
	}

	if steady := build(t, Steady, testEnv()); steady.schedule != nil || steady.arrive != nil {
		t.Error("steady profile grew a controller")
	}
	ol := build(t, OpenLoop, testEnv())
	if ol.arrive == nil || ol.schedule != nil {
		t.Error("open-loop profile misconfigured")
	}
}

func TestProfileValidation(t *testing.T) {
	bad := []struct {
		profile string
		set     variant.Settings
	}{
		{Steady, variant.Settings{"ebs": "0"}},
		{Spike, variant.Settings{"width": "0s"}},
		{Spike, variant.Settings{"burst": "-5"}},
		{Spike, variant.Settings{"ebs": "0"}},
		{OpenLoop, variant.Settings{"rate": "0"}},
		{OpenLoop, variant.Settings{"session": "0s"}},
		{OpenLoop, variant.Settings{"rate": "frog"}},
	}
	for _, c := range bad {
		p, _ := Lookup(c.profile)
		env := testEnv()
		env.Set = c.set
		if _, err := p.Build(env); err == nil {
			t.Errorf("%s with %v accepted", c.profile, c.set)
		}
	}
}

// TestScheduleFollowsInjectedManualClock is the regression test for the
// wallclock bug of an earlier controller, which paced population
// schedules with time.Now/time.Since, so under clock.Manual the fleet
// re-targeted on the wall timeline instead of the advanced one. With
// the injected clock, advancing a Manual clock past the burst onset must
// grow the fleet without any real seconds elapsing.
func TestScheduleFollowsInjectedManualClock(t *testing.T) {
	mc := clock.NewManual(time.Unix(100, 0))
	env := Env{
		Config: Config{
			// Nothing listens here: EBs fail their dial instantly and park
			// in think() — on the same manual clock.
			Addr:  "127.0.0.1:1",
			EBs:   2,
			Scale: clock.RealTime,
			Seed:  1,
			Clock: mc,
		},
		Set: variant.Settings{"burst": "3", "at": "3s", "width": "1h"},
	}
	g := build(t, Spike, env)
	g.Start()
	defer g.Stop()

	if got := g.tele.active.Load(); got != 2 {
		t.Fatalf("initial fleet = %d, want 2", got)
	}
	// Wait for the control loop's ticker to register, then advance
	// paper time second by second. The wall-paced pre-fix controller would
	// need 3+ real seconds to start the burst; the injected clock starts
	// it as soon as the advanced timeline crosses at=3s.
	mc.BlockUntilWaiters(1)
	deadline := time.Now().Add(10 * time.Second)
	for g.tele.active.Load() != 5 {
		if time.Now().After(deadline) {
			t.Fatalf("fleet = %d after advancing past the burst onset, want 5 (schedule not on the injected clock)", g.tele.active.Load())
		}
		mc.Advance(time.Second)
		time.Sleep(2 * time.Millisecond) // let the control loop drain the tick
	}
	if since := mc.Since(time.Unix(100, 0)); since < 3*time.Second {
		t.Fatalf("burst started after only %v of manual time", since)
	}
}

// TestSpikeDriverEndToEnd runs the spike profile against a live server
// and watches the client.active probe follow the burst window.
func TestSpikeDriverEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live-driver test skipped in -short mode")
	}
	addr, counts := startBookstore(t)
	p, _ := Lookup(Spike)
	d, err := p.Build(Env{
		Config: Config{
			Addr:      addr,
			EBs:       3,
			Scale:     clock.Timescale(1000),
			Customers: counts.Customers,
			Items:     counts.Items,
			Seed:      5,
		},
		Set: variant.Settings{
			"burst": "7", "at": "2s", "width": "1h",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	probes := d.Probes()
	if len(probes) != 4 {
		t.Fatalf("generator exports %d probes, want 4", len(probes))
	}
	gauges := map[string]func() float64{}
	for _, p := range probes {
		gauges[p.Name] = p.Gauge
	}
	d.Start()
	defer d.Stop()
	// The burst starts 2 paper-seconds in (2 ms wall) and never ends:
	// the fleet must reach base+burst.
	deadline := time.Now().Add(10 * time.Second)
	for gauges[ProbeActive]() != 10 {
		if time.Now().After(deadline) {
			t.Fatalf("active = %v, want 10 (burst never applied)", gauges[ProbeActive]())
		}
		time.Sleep(2 * time.Millisecond)
	}
	for d.Stats().TotalInteractions() < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d interactions (errors=%d)",
				d.Stats().TotalInteractions(), d.Stats().Errors())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if gauges[ProbeOffered]() == 0 {
		t.Error("offered-rate gauge never moved")
	}
	if gauges[ProbeWIRT]() < 0 {
		t.Error("negative WIRT")
	}
}

// TestOpenLoopDriverEndToEnd runs Poisson arrivals against a live
// server: sessions arrive, complete interactions, and retire.
func TestOpenLoopDriverEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live-driver test skipped in -short mode")
	}
	addr, counts := startBookstore(t)
	p, _ := Lookup(OpenLoop)
	d, err := p.Build(Env{
		Config: Config{
			Addr:      addr,
			Scale:     clock.Timescale(1000),
			Customers: counts.Customers,
			Items:     counts.Items,
			Seed:      6,
		},
		Set: variant.Settings{"rate": "2", "session": "5s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	deadline := time.Now().Add(10 * time.Second)
	for d.Stats().TotalInteractions() < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d interactions (errors=%d)",
				d.Stats().TotalInteractions(), d.Stats().Errors())
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.Stop()
}
