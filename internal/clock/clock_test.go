package clock

import (
	"testing"
	"time"
)

func TestRealNow(t *testing.T) {
	c := Real{}
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real.Now() = %v, want between %v and %v", got, before, after)
	}
}

func TestRealSleepNonPositive(t *testing.T) {
	c := Real{}
	start := time.Now()
	c.Sleep(-time.Hour)
	c.Sleep(0)
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("non-positive Sleep blocked for %v", elapsed)
	}
}

func TestRealSleepBlocks(t *testing.T) {
	c := Real{}
	start := time.Now()
	c.Sleep(10 * time.Millisecond)
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("Sleep returned after %v, want >= 10ms", elapsed)
	}
}

func TestRealAfter(t *testing.T) {
	c := Real{}
	select {
	case <-c.After(5 * time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatal("After never fired")
	}
}

func TestRealTicker(t *testing.T) {
	c := Real{}
	tick, stop := c.newTicker(time.Millisecond)
	defer stop()
	for i := 0; i < 3; i++ {
		select {
		case <-tick:
		case <-time.After(5 * time.Second):
			t.Fatal("ticker never fired")
		}
	}
}

func TestRealSince(t *testing.T) {
	c := Real{}
	start := c.Now()
	c.Sleep(5 * time.Millisecond)
	if d := c.Since(start); d < 5*time.Millisecond {
		t.Fatalf("Since = %v, want >= 5ms", d)
	}
}
