package metrics

import (
	"encoding/json"
	"sync"
	"time"
)

// Agg selects how a Series combines multiple observations that land in the
// same bucket.
type Agg int

const (
	// AggSum adds observations — used for per-interval throughput counts
	// (Figures 9 and 10).
	AggSum Agg = iota + 1
	// AggLast keeps the most recent observation — used for sampled queue
	// lengths (Figures 7 and 8).
	AggLast
)

// String names the aggregation for JSON artifacts and diagnostics.
func (a Agg) String() string {
	switch a {
	case AggSum:
		return "sum"
	case AggLast:
		return "last"
	default:
		return "unknown"
	}
}

// Series is a fixed-interval time series anchored at a start time. It is
// safe for concurrent use.
type Series struct {
	mu     sync.Mutex
	start  time.Time
	width  time.Duration
	agg    Agg
	values []float64
}

// NewSeries returns a Series with the given bucket width and aggregation.
// Width must be positive.
func NewSeries(start time.Time, width time.Duration, agg Agg) *Series {
	if width <= 0 {
		panic("metrics: non-positive series bucket width")
	}
	return &Series{start: start, width: width, agg: agg}
}

// Width reports the bucket width.
func (s *Series) Width() time.Duration { return s.width }

// Observe records v at time t. Observations before the start time are
// dropped (ramp-up traffic outside the measurement window).
func (s *Series) Observe(t time.Time, v float64) {
	d := t.Sub(s.start)
	if d < 0 {
		return
	}
	idx := int(d / s.width)
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.values) <= idx {
		s.values = append(s.values, 0)
	}
	switch s.agg {
	case AggSum:
		s.values[idx] += v
	case AggLast:
		s.values[idx] = v
	default:
		panic("metrics: unknown aggregation")
	}
}

// Point is one (offset, value) sample of a series.
type Point struct {
	Offset time.Duration // from series start to bucket start
	Value  float64
}

// Points returns the bucketed samples in time order. Buckets with no
// observations report zero, matching how the paper's figures show idle
// intervals.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	pts := make([]Point, len(s.values))
	for i := range s.values {
		pts[i] = Point{Offset: time.Duration(i) * s.width, Value: s.values[i]}
	}
	return pts
}

// seriesJSON is the artifact shape of a Series: the start time is
// deliberately omitted (offsets are relative to the measurement window,
// which is what the paper's figures plot).
type seriesJSON struct {
	WidthSeconds float64     `json:"width_seconds"`
	Agg          string      `json:"agg"`
	Points       []pointJSON `json:"points"`
}

type pointJSON struct {
	OffsetSeconds float64 `json:"offset_seconds"`
	Value         float64 `json:"value"`
}

// MarshalJSON emits the series' bucket width, aggregation, and points,
// with offsets in seconds from the series anchor.
func (s *Series) MarshalJSON() ([]byte, error) {
	pts := s.Points()
	out := seriesJSON{
		WidthSeconds: s.width.Seconds(),
		Agg:          s.agg.String(),
		Points:       make([]pointJSON, len(pts)),
	}
	for i, p := range pts {
		out.Points[i] = pointJSON{OffsetSeconds: p.Offset.Seconds(), Value: p.Value}
	}
	return json.Marshal(out)
}

// Source is one sampled gauge and the series its readings go into.
type Source struct {
	Gauge func() float64
	Dst   *Series
}

// SampleUntil is the f of the clock.Every that samples srcs: each tick
// reads every source into its series, stamped with the tick's time,
// until a tick reaches until, which it drops and which ends the loop. It
// powers the queue-length figures: one sample per paper second.
func SampleUntil(until time.Time, srcs []Source) func(now time.Time) bool {
	return func(now time.Time) bool {
		if !now.Before(until) {
			return false
		}
		for _, src := range srcs {
			src.Dst.Observe(now, src.Gauge())
		}
		return true
	}
}
