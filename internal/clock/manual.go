package clock

import (
	"sort"
	"sync"
	"time"
)

// Manual is a deterministic Clock for tests. Time stands still until
// Advance is called; sleepers and tickers whose deadlines fall inside the
// advanced window fire in deadline order.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*manualWaiter
}

var _ Clock = (*Manual)(nil)

type manualWaiter struct {
	at       time.Time
	ch       chan time.Time
	period   time.Duration // 0 for one-shot
	stopped  bool
	sequence int
}

// NewManual returns a Manual clock whose current time is start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Since implements Clock.
func (m *Manual) Since(t time.Time) time.Duration { return m.Now().Sub(t) }

// Sleep implements Clock. It blocks until the clock has been advanced past
// the deadline by another goroutine.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-m.After(d)
}

// After implements Clock.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &manualWaiter{at: m.now.Add(d), ch: make(chan time.Time, 1), sequence: len(m.waiters)}
	if d <= 0 {
		w.ch <- m.now
		return w.ch
	}
	m.waiters = append(m.waiters, w)
	return w.ch
}

func (m *Manual) newTicker(d time.Duration) (<-chan time.Time, func()) {
	if d <= 0 {
		panic("clock: non-positive ticker period")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &manualWaiter{at: m.now.Add(d), ch: make(chan time.Time, 1), period: d, sequence: len(m.waiters)}
	m.waiters = append(m.waiters, w)
	return w.ch, func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		w.stopped = true
	}
}

// Advance moves the clock forward by d, firing every waiter whose deadline
// falls within the window, in deadline order. Periodic waiters re-arm and
// may fire multiple times. Advance never blocks on receivers: like
// time.Ticker, ticks that cannot be delivered are dropped.
func (m *Manual) Advance(d time.Duration) {
	if d < 0 {
		panic("clock: negative advance")
	}
	m.mu.Lock()
	target := m.now.Add(d)
	for {
		w := m.nextDueLocked(target)
		if w == nil {
			break
		}
		m.now = w.at
		select {
		case w.ch <- w.at:
		default:
		}
		if w.period > 0 {
			w.at = w.at.Add(w.period)
		} else {
			m.removeLocked(w)
		}
	}
	m.now = target
	m.mu.Unlock()
}

// Set jumps the clock to t (which must not be in the past), firing due
// waiters along the way.
func (m *Manual) Set(t time.Time) {
	m.mu.Lock()
	now := m.now
	m.mu.Unlock()
	if t.Before(now) {
		panic("clock: Set into the past")
	}
	m.Advance(t.Sub(now))
}

// Waiters reports how many outstanding sleepers/tickers are registered.
// Useful for tests that must synchronize with goroutines entering Sleep.
func (m *Manual) Waiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, w := range m.waiters {
		if !w.stopped {
			n++
		}
	}
	return n
}

// BlockUntilWaiters polls until at least n live waiters are registered.
// It is intended for tests only and spins with a runtime yield.
func (m *Manual) BlockUntilWaiters(n int) {
	for m.Waiters() < n {
		// Busy-wait with a real sleep so the other goroutine can run.
		time.Sleep(50 * time.Microsecond)
	}
}

// nextDueLocked returns the earliest live waiter due at or before target,
// breaking ties by registration order, or nil if none are due.
func (m *Manual) nextDueLocked(target time.Time) *manualWaiter {
	live := m.waiters[:0:0]
	for _, w := range m.waiters {
		if !w.stopped {
			live = append(live, w)
		}
	}
	sort.SliceStable(live, func(i, j int) bool {
		if !live[i].at.Equal(live[j].at) {
			return live[i].at.Before(live[j].at)
		}
		return live[i].sequence < live[j].sequence
	})
	if len(live) == 0 || live[0].at.After(target) {
		return nil
	}
	return live[0]
}

func (m *Manual) removeLocked(target *manualWaiter) {
	for i, w := range m.waiters {
		if w == target {
			m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
			return
		}
	}
}
