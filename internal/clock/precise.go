package clock

import (
	"runtime"
	"sync"
	"time"
)

// Precise is a Clock whose Sleep is accurate for very short durations.
//
// Scaled experiments compress paper-time latencies by 100–200x, turning a
// 1 ms database charge into a 5–10 µs sleep. The runtime timer's wake-up
// granularity (tens of microseconds to a millisecond under load) would
// inflate every such charge by an order of magnitude and crush the
// fast/slow contrast the evaluation measures. Precise busy-waits (with
// scheduler yields) below a threshold and delegates longer sleeps to the
// timer, giving microsecond fidelity at a bounded CPU cost.
type Precise struct{}

var _ Clock = Precise{}

// spinThreshold is the boundary between busy-waiting and timer sleeps.
const spinThreshold = 500 * time.Microsecond

// Now implements Clock.
func (Precise) Now() time.Time { return time.Now() }

// Since implements Clock.
func (Precise) Since(t time.Time) time.Duration { return time.Since(t) }

// Sleep implements Clock with sub-threshold spin-waiting.
func (Precise) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if d >= spinThreshold {
		// Sleep the bulk on the timer, spin the remainder.
		deadline := time.Now().Add(d)
		timerSleep(d - spinThreshold/2)
		spinUntil(deadline)
		return
	}
	spinUntil(time.Now().Add(d))
}

// timers recycles the timers Sleep waits on. time.Sleep keeps a timer per
// goroutine that the runtime frees when the goroutine exits, so a
// short-lived goroutine — a server's per-connection one — would allocate
// one on its first sleep.
var timers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// timerSleep is time.Sleep on a pooled timer. Reset on a stopped or
// fired-and-drained timer leaves no stale tick in its channel (Go 1.23
// timer semantics, which this module's go line selects).
func timerSleep(d time.Duration) {
	t := timers.Get().(*time.Timer)
	t.Reset(d)
	<-t.C
	timers.Put(t)
}

func spinUntil(deadline time.Time) {
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// After implements Clock (timer-based; use Sleep for precision).
func (Precise) After(d time.Duration) <-chan time.Time { return time.After(d) }

func (Precise) newTicker(d time.Duration) (<-chan time.Time, func()) { return wallTicker(d) }
