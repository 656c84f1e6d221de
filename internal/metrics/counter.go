// Package metrics provides the lightweight instrumentation primitives used
// throughout the staged web server reproduction: atomic counters and
// gauges, response-time histograms, and fixed-interval time series for the
// queue-length and throughput figures of the DSN'09 evaluation.
//
// All types are safe for concurrent use and allocation-free on the hot
// paths (Counter.Add, Gauge.Inc, Histogram.Observe).
package metrics

import "sync/atomic"

// Counter is a monotonically increasing event counter. The zero value is
// ready to use.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta, which must be non-negative.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: negative Counter.Add")
	}
	c.n.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is an instantaneous value such as the number of spare workers in a
// pool or the current length of a queue. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Inc increments the gauge by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }
