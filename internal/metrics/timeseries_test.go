package metrics

import (
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"stagedweb/internal/clock"
)

var tsEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestSeriesSum(t *testing.T) {
	s := NewSeries(tsEpoch, time.Minute, AggSum)
	s.Observe(tsEpoch.Add(10*time.Second), 1)
	s.Observe(tsEpoch.Add(30*time.Second), 1)
	s.Observe(tsEpoch.Add(90*time.Second), 1)
	pts := s.Points()
	if len(pts) != 2 {
		t.Fatalf("len(Points) = %d, want 2", len(pts))
	}
	if pts[0].Value != 2 || pts[1].Value != 1 {
		t.Fatalf("values = %v/%v, want 2/1", pts[0].Value, pts[1].Value)
	}
	if pts[1].Offset != time.Minute {
		t.Fatalf("offset = %v, want 1m", pts[1].Offset)
	}
}

func TestSeriesLast(t *testing.T) {
	s := NewSeries(tsEpoch, time.Second, AggLast)
	s.Observe(tsEpoch.Add(100*time.Millisecond), 5)
	s.Observe(tsEpoch.Add(900*time.Millisecond), 9)
	pts := s.Points()
	if pts[0].Value != 9 {
		t.Fatalf("AggLast value = %v, want 9", pts[0].Value)
	}
}

func TestSeriesDropsEarlyObservations(t *testing.T) {
	s := NewSeries(tsEpoch, time.Second, AggSum)
	s.Observe(tsEpoch.Add(-time.Second), 100) // ramp-up traffic
	if len(s.Points()) != 0 {
		t.Fatal("observation before start must be dropped")
	}
}

func TestSeriesGapBucketsReportZero(t *testing.T) {
	s := NewSeries(tsEpoch, time.Second, AggSum)
	s.Observe(tsEpoch.Add(5*time.Second), 1)
	pts := s.Points()
	if len(pts) != 6 {
		t.Fatalf("len = %d, want 6", len(pts))
	}
	for i := 0; i < 5; i++ {
		if pts[i].Value != 0 {
			t.Fatalf("gap bucket %d = %v, want 0", i, pts[i].Value)
		}
	}
}

func TestSeriesInvalidWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero width did not panic")
		}
	}()
	NewSeries(tsEpoch, 0, AggSum)
}

// TestSamplerCollectsOnTicks: one clock.Every over N sources, advanced K
// ticks, gives N series of K points each, at the tick offsets, each
// point the source's reading at that tick. The tick at until is
// dropped and ends the sampling, its ticker with it.
func TestSamplerCollectsOnTicks(t *testing.T) {
	const n, k = 3, 4
	clk := clock.NewManual(tsEpoch)
	var g atomic.Int64
	srcs := make([]Source, n)
	for i := range srcs {
		// Anchored at the first tick, so tick j lands in bucket j-1.
		srcs[i] = Source{
			Gauge: func() float64 { return float64(10*i) + float64(g.Load()) },
			Dst:   NewSeries(tsEpoch.Add(time.Second), time.Second, AggLast),
		}
	}
	stop := clock.Every(clk, time.Second, SampleUntil(tsEpoch.Add((k+1)*time.Second), srcs))
	defer stop()

	clk.BlockUntilWaiters(1)
	for j := 1; j <= k; j++ {
		g.Store(int64(j))
		clk.Advance(time.Second)
		for _, src := range srcs {
			waitForLen(t, src.Dst, j)
		}
	}
	clk.Advance(time.Second) // the tick at until
	for deadline := time.Now().Add(5 * time.Second); clk.Waiters() != 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("sampler still running after the tick at until")
		}
	}
	for i, src := range srcs {
		pts := src.Dst.Points()
		if len(pts) != k {
			t.Fatalf("source %d: %d points, want %d", i, len(pts), k)
		}
		for j, p := range pts {
			if p.Offset != time.Duration(j)*time.Second || p.Value != float64(10*i+j+1) {
				t.Errorf("source %d point %d = %+v, want {%v %d}", i, j, p, time.Duration(j)*time.Second, 10*i+j+1)
			}
		}
	}
}

func waitForLen(t *testing.T, s *Series, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.Points()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("series never reached %d buckets (have %d)", n, len(s.Points()))
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestSamplerStopIdempotentGoroutine(t *testing.T) {
	clk := clock.NewManual(tsEpoch)
	s := NewSeries(tsEpoch, time.Second, AggLast)
	stop := clock.Every(clk, time.Second, SampleUntil(tsEpoch.Add(time.Hour), []Source{{Gauge: func() float64 { return 1 }, Dst: s}}))
	stop() // must not deadlock
	stop()
}

func TestAggString(t *testing.T) {
	cases := map[Agg]string{AggSum: "sum", AggLast: "last", Agg(0): "unknown"}
	for agg, want := range cases {
		if got := agg.String(); got != want {
			t.Errorf("Agg(%d).String() = %q, want %q", agg, got, want)
		}
	}
}

func TestSeriesMarshalJSON(t *testing.T) {
	s := NewSeries(tsEpoch, 2*time.Second, AggSum)
	s.Observe(tsEpoch, 4)
	s.Observe(tsEpoch.Add(time.Second), 2) // same bucket, sum 6
	s.Observe(tsEpoch.Add(2*time.Second), 1)
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		WidthSeconds float64 `json:"width_seconds"`
		Agg          string  `json:"agg"`
		Points       []struct {
			OffsetSeconds float64 `json:"offset_seconds"`
			Value         float64 `json:"value"`
		} `json:"points"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.WidthSeconds != 2 || decoded.Agg != "sum" || len(decoded.Points) != 2 {
		t.Fatalf("decoded = %+v", decoded)
	}
	if decoded.Points[0].Value != 6 || decoded.Points[1].OffsetSeconds != 2 || decoded.Points[1].Value != 1 {
		t.Fatalf("points wrong: %+v", decoded.Points)
	}
}
