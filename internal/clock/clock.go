// Package clock provides time sources for the staged web server and its
// experiment harness.
//
// Three implementations are provided: Real, backed by the runtime clock,
// Precise, the runtime clock with microsecond-accurate sleeps, and Manual,
// a deterministic clock for tests that only advances when told to. All
// latency-sensitive components (database cost model, think times) take a
// Clock so that unit tests are deterministic and experiments can run at a
// scaled pace, and every periodic loop (reserve controller, sampler,
// health check) runs through Every on one.
package clock

import (
	"sync"
	"time"
)

// Clock is an abstract time source.
type Clock interface {
	// Now reports the current time.
	Now() time.Time
	// Sleep blocks the calling goroutine for d. Non-positive d returns
	// immediately.
	Sleep(d time.Duration)
	// After returns a channel that receives the clock's time once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
	// Since reports the time elapsed since t.
	Since(t time.Time) time.Duration
	// newTicker returns the channel of a ticker firing every d, and the
	// function that turns it off (without closing the channel). d must be
	// positive. Every is its only caller.
	newTicker(d time.Duration) (<-chan time.Time, func())
}

// Every calls f with the time of each tick of a ticker firing every d on
// clk, from one goroutine, until f returns false or stop is called. The
// ticks are the clock's: deadlines are armed ahead when Every is called,
// and a tick that comes while f still runs is dropped. stop ends the loop
// and waits for its goroutine to exit; calling it again, or after f has
// returned false, is safe.
func Every(clk Clock, d time.Duration, f func(now time.Time) bool) (stop func()) {
	c, stopTicker := clk.newTicker(d)
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		defer stopTicker()
		for {
			select {
			case <-quit:
				return
			case now := <-c:
				if !f(now) {
					return
				}
			}
		}
	}()
	return sync.OnceFunc(func() {
		close(quit)
		<-done
	})
}

// Real is a Clock backed by the runtime clock. The zero value is ready to
// use.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

func (Real) newTicker(d time.Duration) (<-chan time.Time, func()) { return wallTicker(d) }

// wallTicker is the runtime's ticker, the one Real and Precise share.
func wallTicker(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(d)
	return t.C, t.Stop
}
