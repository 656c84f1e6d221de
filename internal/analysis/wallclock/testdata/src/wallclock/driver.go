// Package wallclock mirrors the load generator's pre-fix population
// controller (today workload.Generator.control) — the real bug this analyzer was built to
// catch: pacing a paper-time schedule with the wall clock, so a
// clock.Manual run re-targets the fleet on the wrong timeline.
package wallclock

import "time"

// control is the pre-PR-7 schedule loop, verbatim in shape.
func control(stop chan struct{}, wallTick time.Duration, schedule func(time.Duration) int, setTarget func(int)) {
	tick := time.NewTicker(wallTick) // want `direct wall-clock call time\.NewTicker`
	defer tick.Stop()
	start := time.Now() // want `direct wall-clock call time\.Now`
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			setTarget(schedule(time.Since(start))) // want `direct wall-clock call time\.Since`
		}
	}
}

// arrivalGap was the open-loop variant of the same bug.
func arrivalGap(gap time.Duration) *time.Timer {
	return time.NewTimer(gap) // want `direct wall-clock call time\.NewTimer`
}

// expired is the allowed shape: methods on time.Time values are fine —
// only the package-level functions read the wall clock, and a correctly
// injected component gets its time.Time values from a clock.Clock.
func expired(deadline, now time.Time) bool {
	return now.After(deadline) && now.Sub(deadline) > time.Second
}

// holdFor does arithmetic on durations without touching the clock.
func holdFor(base time.Duration) time.Duration {
	return base * 3 / 2
}
