package workload

import (
	"math/rand"
	"testing"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/webtest"
)

// drawThinks samples n think times from a browser configured with cfg.
func drawThinks(t *testing.T, cfg Config, n int) []time.Duration {
	t.Helper()
	cfg.fillDefaults()
	b := &browser{cfg: cfg, rng: rand.New(rand.NewSource(7))}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = b.thinkDuration()
	}
	return out
}

// TestThinkExponential checks TPC-W clause 5.3.2.2: a negative
// exponential with mean thinkMean, truncated below at thinkMin and
// capped at ten times the mean.
func TestThinkExponential(t *testing.T) {
	const n = 50000
	mean, min := thinkMean, thinkMin
	draws := drawThinks(t, Config{ThinkExponential: true}, n)

	var sum time.Duration
	for _, d := range draws {
		if d < min {
			t.Fatalf("draw %v under the %v floor", d, min)
		}
		if d > 10*mean {
			t.Fatalf("draw %v over the 10x-mean cap %v", d, 10*mean)
		}
		sum += d
	}
	// The floor raises the mean slightly and the cap trims the tail;
	// with 50k draws the empirical mean lands within a few percent of 7 s.
	got := sum / n
	if got < time.Duration(0.9*float64(mean)) || got > time.Duration(1.1*float64(mean)) {
		t.Fatalf("exponential mean = %v, want within 10%% of %v", got, mean)
	}
}

// TestThinkUniform checks the paper's literal "0.7 to 7 seconds" path:
// every draw inside the bounds with the mean near the center.
func TestThinkUniform(t *testing.T) {
	const n = 50000
	min, max := 700*time.Millisecond, 7*time.Second
	if thinkMin != min || thinkMax != max {
		t.Fatalf("think bounds [%v, %v], want the paper's [%v, %v]", thinkMin, thinkMax, min, max)
	}
	draws := drawThinks(t, Config{}, n)
	var sum time.Duration
	for _, d := range draws {
		if d < min || d > max {
			t.Fatalf("draw %v outside [%v, %v]", d, min, max)
		}
		sum += d
	}
	center := (min + max) / 2
	got := sum / n
	if got < time.Duration(0.95*float64(center)) || got > time.Duration(1.05*float64(center)) {
		t.Fatalf("uniform mean = %v, want near %v", got, center)
	}
}

// TestSetTargetGrowShrink drives the dynamic fleet against a live
// server: the population follows the target both up and down.
func TestSetTargetGrowShrink(t *testing.T) {
	if testing.Short() {
		t.Skip("live-fleet test skipped in -short mode")
	}
	addr, counts := startBookstore(t)
	g := New(Config{
		Addr:      addr,
		EBs:       2,
		Scale:     clock.Timescale(1000),
		Customers: counts.Customers,
		Items:     counts.Items,
		Seed:      3,
	})
	g.Start()
	defer g.Stop()
	waitActive(t, g, 2)
	g.SetTarget(6)
	waitActive(t, g, 6)
	g.SetTarget(1)
	waitActive(t, g, 1)
	if g.tele.offered.Load() == 0 {
		t.Fatal("no interactions offered")
	}
}

// TestSpawnSessionExpires pins the open-loop primitive: a session lives
// its paper-time lifetime and retires itself.
func TestSpawnSessionExpires(t *testing.T) {
	if testing.Short() {
		t.Skip("live-fleet test skipped in -short mode")
	}
	addr, counts := startBookstore(t)
	g := New(Config{
		Addr:      addr,
		EBs:       0,
		Scale:     clock.Timescale(1000),
		Customers: counts.Customers,
		Items:     counts.Items,
		Seed:      4,
	})
	g.Start()
	defer g.Stop()
	if g.tele.active.Load() != 0 {
		t.Fatalf("fleet not empty at start: %d", g.tele.active.Load())
	}
	g.SpawnSession(5 * time.Second) // 5 ms wall at scale 1000
	waitActive(t, g, 1)
	waitActive(t, g, 0)
}

// waitActive polls until the generator's live EB count reaches want.
func waitActive(t *testing.T, g *Generator, want int64) {
	t.Helper()
	if !webtest.WaitUntil(10*time.Second, func() bool { return g.tele.active.Load() == want }) {
		t.Fatalf("active = %d, want %d", g.tele.active.Load(), want)
	}
}
