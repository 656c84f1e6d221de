package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of
// sorted, and how many samples lie beyond it. A percentile is only worth
// reporting with at least ten samples beyond it.
func percentile(sorted []int64, p float64) (v int64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], len(sorted) - rank
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Host interference on a shared machine only ever slows a slice of the
// window down, and it comes in bursts that last seconds (README.md,
// "Measured noise"). So each timing metric is computed per whole
// one-second slice and the quartile on the quiet side is reported: the
// upper quartile of the slices' rates, the lower quartile of the
// slices' latency percentiles. A burst has to cover three quarters of
// the window before it moves the figure; the program's own periodic
// work (a GC cycle every ~150 ms) is in every slice.

// sliceOf returns the index of the slice that instant t falls in, and
// whether that slice is one of the window's n whole slices.
func sliceOf(t, from, width int64, n int) (int, bool) {
	if t < from {
		return 0, false
	}
	i := (t - from) / width
	return int(i), i < int64(n)
}

// sliceRate is the window's rate per second: the instants are counted
// into n slices of width ns starting at from, and the upper quartile of
// the slice counts is returned.
func sliceRate(ends []int64, from, width int64, n int) float64 {
	counts := make([]float64, n)
	for _, e := range ends {
		if i, ok := sliceOf(e, from, width, n); ok {
			counts[i]++
		}
	}
	_, q3 := quartiles(counts)
	return q3 * 1e9 / float64(width)
}

// sliceLatency is the window's p-th percentile latency: the lower
// quartile, over the slices that hold at least one sample, of each
// slice's own nearest-rank percentile. thinnest and beyond describe the
// slice with the fewest samples: how many it holds and how many of them
// lie beyond its percentile.
func sliceLatency(ends, durs []int64, p float64, from, width int64, n int) (v float64, thinnest, beyond int) {
	per := make([][]int64, n)
	for k, e := range ends {
		if i, ok := sliceOf(e, from, width, n); ok {
			per[i] = append(per[i], durs[k])
		}
	}
	var ps []float64
	for _, d := range per {
		if len(d) == 0 {
			continue
		}
		slices.Sort(d)
		x, b := percentile(d, p)
		ps = append(ps, float64(x))
		if thinnest == 0 || len(d) < thinnest {
			thinnest, beyond = len(d), b
		}
	}
	v, _ = quartiles(ps)
	return v, thinnest, beyond
}

// quartiles returns the first and third quartile, interpolated as
// Python's statistics.quantiles(values, n=4) does (the "exclusive"
// method); with fewer than four values, where Python extrapolates, they
// stay inside the values' range. One value is both its own quartiles.
func quartiles(vs []float64) (q1, q3 float64) {
	switch len(vs) {
	case 0:
		return 0, 0
	case 1:
		return vs[0], vs[0]
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		j, delta := k*(len(s)+1)/4, k*(len(s)+1)%4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median — the figure the benchmark's bounds are held
// against.
func quartileSpread(vs []float64) float64 {
	m := median(vs)
	if len(vs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return math.Abs(q3-q1) / math.Abs(m)
}
