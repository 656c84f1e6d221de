package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.Mean != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty Quantile = %v, want 0", q)
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	var h Histogram
	h.Observe(100 * time.Millisecond)
	if h.Snapshot().Count != 1 {
		t.Fatalf("Count = %d, want 1", h.Snapshot().Count)
	}
	if h.Snapshot().Mean != 100*time.Millisecond {
		t.Fatalf("Mean = %v, want 100ms", h.Snapshot().Mean)
	}
	if h.Snapshot().Min != h.Snapshot().Max || h.Snapshot().Min != 100*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v, want 100ms", h.Snapshot().Min, h.Snapshot().Max)
	}
}

func TestHistogramFractionAtOrBelow(t *testing.T) {
	var h Histogram
	if f := h.FractionAtOrBelow(time.Second); f != 1 {
		t.Fatalf("empty FractionAtOrBelow = %v, want 1 (nothing violated)", f)
	}
	// Widely separated observations land in distinct buckets, so the
	// fractions are exact despite bucket resolution.
	for i := 0; i < 9; i++ {
		h.Observe(10 * time.Millisecond)
	}
	h.Observe(10 * time.Second)
	if f := h.FractionAtOrBelow(100 * time.Millisecond); f != 0.9 {
		t.Fatalf("FractionAtOrBelow(100ms) = %v, want 0.9", f)
	}
	if f := h.FractionAtOrBelow(time.Minute); f != 1 {
		t.Fatalf("FractionAtOrBelow(1m) = %v, want 1", f)
	}
	if f := h.FractionAtOrBelow(-time.Second); f > 0.1 {
		t.Fatalf("FractionAtOrBelow(negative) = %v, want at most the zero bucket", f)
	}
}

func TestHistogramMean(t *testing.T) {
	var h Histogram
	h.Observe(time.Second)
	h.Observe(3 * time.Second)
	if got := h.Snapshot().Mean; got != 2*time.Second {
		t.Fatalf("Mean = %v, want 2s", got)
	}
	if got := h.Snapshot().Sum; got != 4*time.Second {
		t.Fatalf("Sum = %v, want 4s", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if h.Snapshot().Min != 0 {
		t.Fatalf("Min = %v, want 0", h.Snapshot().Min)
	}
}

func TestHistogramQuantileApproximation(t *testing.T) {
	var h Histogram
	// 100 observations spanning 1ms..100ms.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	p50 := h.Quantile(0.5)
	// Log buckets with 8 per decade: relative error bound ~ 10^(1/8) = 1.33x.
	if p50 < 40*time.Millisecond || p50 > 70*time.Millisecond {
		t.Fatalf("P50 = %v, want ~50ms within bucket error", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 80*time.Millisecond || p99 > 100*time.Millisecond {
		t.Fatalf("P99 = %v, want ~99ms within bucket error", p99)
	}
	if q := h.Quantile(1); q != h.Snapshot().Max {
		t.Fatalf("Quantile(1) = %v, want max %v", q, h.Snapshot().Max)
	}
}

func TestHistogramQuantileOutOfRangePanics(t *testing.T) {
	var h Histogram
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range quantile did not panic")
		}
	}()
	h.Quantile(1.5)
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(time.Second)
	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || s.Max != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Observe(time.Duration(i+1) * time.Second)
	}
	s := h.Snapshot()
	if s.Count != 10 {
		t.Fatalf("Snapshot.Count = %d, want 10", s.Count)
	}
	if s.Mean != 5500*time.Millisecond {
		t.Fatalf("Snapshot.Mean = %v, want 5.5s", s.Mean)
	}
	if s.P50 == 0 || s.P90 == 0 || s.P99 == 0 {
		t.Fatal("Snapshot quantiles must be populated")
	}
	if s.P50 > s.P90 || s.P90 > s.P99 {
		t.Fatalf("quantiles not monotone: %v %v %v", s.P50, s.P90, s.P99)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for j := 0; j < perG; j++ {
				h.Observe(time.Duration(r.Intn(1000)) * time.Millisecond)
			}
		}(int64(i))
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != goroutines*perG {
		t.Fatalf("Count = %d, want %d", got, goroutines*perG)
	}
}

// Property: mean is always within [min, max] and quantiles are monotone in q.
func TestHistogramInvariantsProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, u := range raw {
			h.Observe(time.Duration(u%10_000_000) * time.Microsecond)
		}
		s := h.Snapshot()
		mean, lo, hi := s.Mean, s.Min, s.Max
		if mean < lo || mean > hi {
			return false
		}
		prev := time.Duration(0)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return h.Quantile(1) <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for _, d := range []time.Duration{
		0, time.Microsecond, 10 * time.Microsecond, time.Millisecond,
		10 * time.Millisecond, time.Second, 10 * time.Second, time.Hour,
	} {
		idx := bucketIndex(d)
		if idx < prev {
			t.Fatalf("bucketIndex(%v) = %d < previous %d", d, idx, prev)
		}
		prev = idx
	}
}
