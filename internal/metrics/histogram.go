// Package metrics provides the instrumentation primitives the staged web
// server reproduction measures with: response-time histograms and
// fixed-interval time series for the queue-length and throughput figures
// of the DSN'09 evaluation. Event counters and gauges are plain
// sync/atomic.Int64 fields in the packages that own them.
//
// Both types are safe for concurrent use, and Histogram.Observe does not
// allocate.
package metrics

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Histogram accumulates duration observations (response times, queue
// waits, data-generation times) and reports count, mean, min, max, and
// approximate quantiles from log-spaced buckets.
//
// Buckets span 1 µs to ~73 min with 8 sub-buckets per decade, giving a
// worst-case quantile error under 15% — ample for reproducing tables whose
// entries differ by orders of magnitude. The zero value is ready to use.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	buckets [numBuckets]int64
}

const (
	bucketsPerDecade = 8
	numDecades       = 10 // 1µs .. ~1e10µs
	numBuckets       = bucketsPerDecade*numDecades + 1
)

// bucketIndex maps a duration to its log-spaced bucket.
func bucketIndex(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	idx := int(math.Floor(math.Log10(float64(us)) * bucketsPerDecade))
	if idx < 0 {
		idx = 0
	}
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// bucketUpper returns the upper bound of bucket i.
func bucketUpper(i int) time.Duration {
	us := math.Pow(10, float64(i+1)/bucketsPerDecade)
	return time.Duration(us) * time.Microsecond
}

// Observe records one duration. Negative durations are clamped to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	idx := bucketIndex(d)
	h.mu.Lock()
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.buckets[idx]++
	h.mu.Unlock()
}

// Quantile reports an approximate q-quantile (0 <= q <= 1) as the upper
// bound of the bucket containing it, or 0 with no observations.
func (h *Histogram) Quantile(q float64) time.Duration {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of range", q))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range h.buckets {
		cum += n
		if cum >= rank {
			if i == 0 {
				return h.min
			}
			upper := bucketUpper(i)
			if upper > h.max {
				upper = h.max
			}
			return upper
		}
	}
	return h.max
}

// FractionAtOrBelow reports the fraction of observations whose bucket
// lies at or below d's bucket — the SLO-attainment measure: the share
// of requests answered within the threshold, to bucket resolution.
// With no observations it reports 1 (an empty window violates nothing).
func (h *Histogram) FractionAtOrBelow(d time.Duration) float64 {
	if d < 0 {
		d = 0
	}
	idx := bucketIndex(d)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 1
	}
	var cum int64
	for i := 0; i <= idx; i++ {
		cum += h.buckets[i]
	}
	return float64(cum) / float64(h.count)
}

// Reset clears all state (used at the start of a measurement window).
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count = 0
	h.sum = 0
	h.min = 0
	h.max = 0
	h.buckets = [numBuckets]int64{}
}

// Snapshot is a point-in-time copy of the histogram's summary statistics.
type Snapshot struct {
	Count int64
	Sum   time.Duration
	Mean  time.Duration
	Min   time.Duration
	Max   time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
}

// Snapshot captures the current summary statistics atomically.
func (h *Histogram) Snapshot() Snapshot {
	// Take quantiles under one external view; Quantile locks internally,
	// so copy the raw state first.
	h.mu.Lock()
	cp := Histogram{count: h.count, sum: h.sum, min: h.min, max: h.max, buckets: h.buckets}
	h.mu.Unlock()
	s := Snapshot{Count: cp.count, Sum: cp.sum, Min: cp.min, Max: cp.max}
	if cp.count > 0 {
		s.Mean = cp.sum / time.Duration(cp.count)
		s.P50 = cp.Quantile(0.50)
		s.P90 = cp.Quantile(0.90)
		s.P99 = cp.Quantile(0.99)
	}
	return s
}
