package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p      float64
		v      int64
		beyond int
	}{
		{0.50, 500, 500},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1.0, 1000, 0},
	} {
		v, beyond := percentile(sorted, c.p)
		if v != c.v || beyond != c.beyond {
			t.Errorf("percentile(%v) = %d with %d beyond, want %d with %d", c.p, v, beyond, c.v, c.beyond)
		}
	}
	if v, beyond := percentile([]int64{7}, 0.99); v != 7 || beyond != 0 {
		t.Errorf("single sample: got %d, %d beyond", v, beyond)
	}
	if v, _ := percentile(nil, 0.5); v != 0 {
		t.Errorf("empty: got %d", v)
	}
}

// Interference that slows three slices in eight moves neither the rate
// nor the latency; samples outside the window's whole slices do not count.
func TestSliceFiguresIgnoreStalledSlices(t *testing.T) {
	const sec = int64(1e9)
	from := 5 * sec
	var ends, durs []int64
	for s := int64(0); s < 8; s++ {
		n, dur := 100, int64(2e6)
		if s == 1 || s == 2 || s == 6 {
			n, dur = 40, 5e6 // a stalled slice: fewer completions, each slower
		}
		for i := 0; i < n; i++ {
			ends = append(ends, from+s*sec+int64(i)*1e6)
			durs = append(durs, dur+int64(i)) // p50 = dur+n/2-1, p95 = dur+0.95n-1
		}
	}
	ends = append(ends, from-1, from+8*sec, from+12*sec)
	durs = append(durs, 1, 1, 1)
	if got := sliceRate(ends, from, sec, 8); got != 100 {
		t.Errorf("sliceRate = %v, want 100", got)
	}
	if got, thinnest, beyond := sliceLatency(ends, durs, 0.50, from, sec, 8); got != 2e6+49 || thinnest != 40 || beyond != 20 {
		t.Errorf("sliceLatency p50 = %v (thinnest slice %d, %d beyond), want %v (40, 20)", got, thinnest, beyond, 2e6+49)
	}
	if got, _, beyond := sliceLatency(ends, durs, 0.95, from, sec, 8); got != 2e6+94 || beyond != 2 {
		t.Errorf("sliceLatency p95 = %v (%d beyond), want %v (2)", got, beyond, 2e6+94)
	}
	// Half-second slices report a per-second rate.
	if got := sliceRate([]int64{0, 1, 2, sec / 2, sec/2 + 1, sec/2 + 2}, 0, sec/2, 2); got != 6 {
		t.Errorf("half-second slices: %v, want 6/s", got)
	}
	// A slice without a sample has no latency and is left out.
	if got, thinnest, _ := sliceLatency([]int64{0, 2 * sec}, []int64{7, 7}, 0.5, 0, sec, 3); got != 7 || thinnest != 1 {
		t.Errorf("empty slice: latency %v, thinnest %d, want 7, 1", got, thinnest)
	}
}

// The expected values are Python's statistics.quantiles(values, n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		vs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{13, 10, 12, 11}, (12.75 - 10.25) / 11.5},
		{[]float64{4, 2}, (3.5 - 2.5) / 3}, // both quartiles clamp to the only interval
		{[]float64{5}, 0},
	} {
		if got := quartileSpread(c.vs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}
