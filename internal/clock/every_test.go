package clock

import (
	"runtime"
	"testing"
	"time"
)

// TestEvery drives Every on a Manual clock, one period at a time: f runs
// once per period with that tick's time, a false return ends the loop
// (its ticker with it), stop waits for a running f and may be called
// again, and no goroutine is left behind.
func TestEvery(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ticks   int  // periods advanced
		falseAt int  // the call that returns false; 0 for none
		stopInF bool // stop is called while the last call runs
		calls   int  // calls f sees
	}{
		{name: "once per period", ticks: 4, calls: 4},
		{name: "false ends the loop", ticks: 4, falseAt: 2, calls: 2},
		{name: "stop waits for f", ticks: 2, stopInF: true, calls: 2},
		{name: "stop before any tick", ticks: 0, calls: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			m := NewManual(epoch)
			seen := make(chan time.Time, tc.ticks)
			gate := make(chan struct{})
			n := 0 // read and written by the loop's goroutine only
			stop := Every(m, time.Second, func(now time.Time) bool {
				n++
				seen <- now
				if tc.stopInF && n == tc.calls {
					<-gate
				}
				return n != tc.falseAt
			})
			if w := m.Waiters(); w != 1 {
				t.Fatalf("Waiters = %d after Every returned, want its ticker armed", w)
			}
			for i := 1; i <= tc.ticks; i++ {
				m.Advance(time.Second)
				if i > tc.calls {
					continue
				}
				select {
				case at := <-seen:
					if want := epoch.Add(time.Duration(i) * time.Second); !at.Equal(want) {
						t.Fatalf("call %d at %v, want %v", i, at, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("call %d never came", i)
				}
			}
			if tc.falseAt > 0 {
				// The loop ends with its ticker: no waiter is left.
				for deadline := time.Now().Add(5 * time.Second); m.Waiters() != 0; time.Sleep(100 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Fatal("loop still ticking after f returned false")
					}
				}
			}
			stopped := make(chan struct{})
			go func() {
				stop()
				close(stopped)
			}()
			if tc.stopInF {
				select {
				case <-stopped:
					t.Fatal("stop returned while f was running")
				case <-time.After(20 * time.Millisecond):
				}
				close(gate)
			}
			select {
			case <-stopped:
			case <-time.After(5 * time.Second):
				t.Fatal("stop never returned")
			}
			stop() // again: a no-op
			m.Advance(time.Duration(tc.ticks+1) * time.Second)
			if len(seen) != 0 {
				t.Fatalf("f called %d more times", len(seen))
			}
			if n != tc.calls {
				t.Fatalf("f called %d times, want %d", n, tc.calls)
			}
			if m.Waiters() != 0 {
				t.Fatal("ticker still armed after stop")
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines left, want %d", runtime.NumGoroutine(), before)
				}
			}
		})
	}
}
