package clock

import (
	"testing"
	"time"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestManualNowFrozen(t *testing.T) {
	m := NewManual(epoch)
	if got := m.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
	if got := m.Now(); !got.Equal(epoch) {
		t.Fatalf("second Now() = %v, want %v (time must stand still)", got, epoch)
	}
}

func TestManualAdvance(t *testing.T) {
	m := NewManual(epoch)
	m.Advance(90 * time.Second)
	want := epoch.Add(90 * time.Second)
	if got := m.Now(); !got.Equal(want) {
		t.Fatalf("Now() after Advance = %v, want %v", got, want)
	}
}

func TestManualAfterFiresAtDeadline(t *testing.T) {
	m := NewManual(epoch)
	ch := m.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired before Advance")
	default:
	}
	m.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired 1s early")
	default:
	}
	m.Advance(time.Second)
	select {
	case at := <-ch:
		if want := epoch.Add(10 * time.Second); !at.Equal(want) {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	default:
		t.Fatal("After did not fire at its deadline")
	}
}

func TestManualAfterNonPositive(t *testing.T) {
	m := NewManual(epoch)
	select {
	case <-m.After(0):
	default:
		t.Fatal("After(0) should fire immediately")
	}
	select {
	case <-m.After(-time.Second):
	default:
		t.Fatal("After(-1s) should fire immediately")
	}
}

func TestManualSleepWakesOnAdvance(t *testing.T) {
	m := NewManual(epoch)
	done := make(chan struct{})
	go func() {
		m.Sleep(5 * time.Second)
		close(done)
	}()
	m.BlockUntilWaiters(1)
	m.Advance(5 * time.Second)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep never woke")
	}
}

func TestManualSleepZeroReturns(t *testing.T) {
	m := NewManual(epoch)
	done := make(chan struct{})
	go func() {
		m.Sleep(0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep(0) blocked")
	}
}

func TestManualTickerPeriodic(t *testing.T) {
	m := NewManual(epoch)
	tick, stop := m.newTicker(time.Second)
	defer stop()

	// Advance one second at a time so each tick can be consumed; ticks are
	// dropped (not queued) when nobody is receiving, like time.Ticker with
	// its 1-buffered channel.
	for i := 1; i <= 3; i++ {
		m.Advance(time.Second)
		select {
		case at := <-tick:
			want := epoch.Add(time.Duration(i) * time.Second)
			if !at.Equal(want) {
				t.Fatalf("tick %d at %v, want %v", i, at, want)
			}
		default:
			t.Fatalf("tick %d not delivered", i)
		}
	}
}

func TestManualTickerStop(t *testing.T) {
	m := NewManual(epoch)
	tick, stop := m.newTicker(time.Second)
	stop()
	m.Advance(10 * time.Second)
	select {
	case <-tick:
		t.Fatal("stopped ticker fired")
	default:
	}
}

func TestManualTickerDropsMissedTicks(t *testing.T) {
	m := NewManual(epoch)
	tick, stop := m.newTicker(time.Second)
	defer stop()
	m.Advance(10 * time.Second) // nobody receiving: only 1 buffered tick survives
	n := 0
	for {
		select {
		case <-tick:
			n++
		default:
			if n != 1 {
				t.Fatalf("got %d buffered ticks, want 1", n)
			}
			return
		}
	}
}

func TestManualOrderOfFiring(t *testing.T) {
	m := NewManual(epoch)
	chB := m.After(2 * time.Second) // registered first, due later
	chA := m.After(1 * time.Second)
	m.Advance(time.Second)
	select {
	case <-chB:
		t.Fatal("later deadline fired first")
	default:
	}
	select {
	case at := <-chA:
		if want := epoch.Add(time.Second); !at.Equal(want) {
			t.Fatalf("a fired at %v, want %v", at, want)
		}
	default:
		t.Fatal("earlier deadline did not fire")
	}
	m.Advance(time.Second)
	select {
	case <-chB:
	default:
		t.Fatal("later deadline did not fire after full window")
	}
}

func TestManualSet(t *testing.T) {
	m := NewManual(epoch)
	target := epoch.Add(time.Hour)
	m.Set(target)
	if got := m.Now(); !got.Equal(target) {
		t.Fatalf("Now() = %v, want %v", got, target)
	}
}

func TestManualSetPastPanics(t *testing.T) {
	m := NewManual(epoch)
	defer func() {
		if recover() == nil {
			t.Fatal("Set into the past did not panic")
		}
	}()
	m.Set(epoch.Add(-time.Second))
}

func TestManualNegativeAdvancePanics(t *testing.T) {
	m := NewManual(epoch)
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	m.Advance(-time.Second)
}

func TestManualSince(t *testing.T) {
	m := NewManual(epoch)
	start := m.Now()
	m.Advance(42 * time.Second)
	if d := m.Since(start); d != 42*time.Second {
		t.Fatalf("Since = %v, want 42s", d)
	}
}

func TestManualWaiters(t *testing.T) {
	m := NewManual(epoch)
	if n := m.Waiters(); n != 0 {
		t.Fatalf("Waiters = %d, want 0", n)
	}
	_ = m.After(time.Second)
	_, stop := m.newTicker(time.Second)
	if n := m.Waiters(); n != 2 {
		t.Fatalf("Waiters = %d, want 2", n)
	}
	stop()
	if n := m.Waiters(); n != 1 {
		t.Fatalf("Waiters after Stop = %d, want 1", n)
	}
}
