package clock

import (
	"testing"
	"time"
)

func TestPreciseSleepShortDurations(t *testing.T) {
	c := Precise{}
	for _, d := range []time.Duration{5 * time.Microsecond, 50 * time.Microsecond, 200 * time.Microsecond} {
		start := time.Now()
		c.Sleep(d)
		elapsed := time.Since(start)
		if elapsed < d {
			t.Fatalf("Sleep(%v) returned after %v (too early)", d, elapsed)
		}
		// Precision bound: an order of magnitude tighter than the timer
		// floor for these micro-sleeps.
		if elapsed > d+2*time.Millisecond {
			t.Fatalf("Sleep(%v) took %v (too imprecise)", d, elapsed)
		}
	}
}

func TestPreciseSleepLongDuration(t *testing.T) {
	c := Precise{}
	start := time.Now()
	c.Sleep(5 * time.Millisecond)
	elapsed := time.Since(start)
	if elapsed < 5*time.Millisecond {
		t.Fatalf("Sleep(5ms) returned after %v", elapsed)
	}
	if elapsed > 15*time.Millisecond {
		t.Fatalf("Sleep(5ms) took %v", elapsed)
	}
}

func TestPreciseSleepNonPositive(t *testing.T) {
	c := Precise{}
	start := time.Now()
	c.Sleep(0)
	c.Sleep(-time.Second)
	if time.Since(start) > 10*time.Millisecond {
		t.Fatal("non-positive sleep blocked")
	}
}

func TestPreciseClockInterface(t *testing.T) {
	c := Precise{}
	if c.Now().IsZero() {
		t.Fatal("Now is zero")
	}
	if c.Since(c.Now().Add(-time.Second)) < time.Second {
		t.Fatal("Since wrong")
	}
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatal("After never fired")
	}
	tick, stop := c.newTicker(time.Millisecond)
	defer stop()
	select {
	case <-tick:
	case <-time.After(5 * time.Second):
		t.Fatal("ticker never fired")
	}
}
