package workload

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stagedweb/internal/metrics"
)

// Stats collects client-side measurements: per-page WIRT histograms,
// whose counts are the completions, and per-page error counts. Recording can be gated to the measurement window —
// the paper excludes the five-minute ramp-up and cool-down.
type Stats struct {
	recording atomic.Bool

	mu    sync.Mutex
	pages map[string]*metrics.Histogram
	errs  map[string]*int64

	// overall aggregates WIRT across all pages — the distribution tail
	// quantiles (p99/p999) and SLO attainment are computed over the whole
	// interaction stream, not per page.
	overall metrics.Histogram

	// sloThreshold (wall ns; 0 = off) gates the cumulative sloWithin /
	// sloTotal pair, which the harness samples once per paper second to
	// compute windowed SLO attainment — the signal its fault-recovery
	// column is derived from.
	sloThreshold atomic.Int64
	sloWithin    atomic.Int64
	sloTotal     atomic.Int64
}

func newStats() *Stats {
	s := &Stats{
		pages: make(map[string]*metrics.Histogram, 16),
		errs:  make(map[string]*int64, 16),
	}
	s.recording.Store(true)
	return s
}

// SetRecording gates measurement (true during the measurement window).
func (s *Stats) SetRecording(on bool) { s.recording.Store(on) }

// Reset clears all measurements (start of the measurement window).
func (s *Stats) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pages = make(map[string]*metrics.Histogram, 16)
	s.errs = make(map[string]*int64, 16)
	s.overall.Reset()
	s.sloWithin.Store(0)
	s.sloTotal.Store(0)
}

func (s *Stats) record(page string, wirt time.Duration) {
	if !s.recording.Load() {
		return
	}
	s.histogram(page).Observe(wirt)
	s.overall.Observe(wirt)
	if t := s.sloThreshold.Load(); t > 0 {
		s.sloTotal.Add(1)
		if int64(wirt) <= t {
			s.sloWithin.Add(1)
		}
	}
}

// OverallQuantile reports an approximate q-quantile of WIRT across all
// pages (wall time; divide through the timescale for paper seconds).
func (s *Stats) OverallQuantile(q float64) time.Duration {
	return s.overall.Quantile(q)
}

// FractionWithin reports the fraction of completed interactions (all
// pages) whose WIRT was at or below d — SLO attainment for threshold d.
func (s *Stats) FractionWithin(d time.Duration) float64 {
	return s.overall.FractionAtOrBelow(d)
}

// SetSLOThreshold arms the cumulative SLO counters: every recorded
// interaction from now on counts toward SLOCounts, split at wall
// duration d. Zero disables the counters.
func (s *Stats) SetSLOThreshold(d time.Duration) { s.sloThreshold.Store(int64(d)) }

// SLOCounts reports how many recorded interactions completed within
// the armed SLO threshold, and how many were recorded in total, since
// the last Reset. Sampling both once per paper second yields windowed
// attainment over time.
func (s *Stats) SLOCounts() (within, total int64) {
	return s.sloWithin.Load(), s.sloTotal.Load()
}

// recordError attributes one failed interaction to the page whose
// interaction failed (image failures charge the parent page).
func (s *Stats) recordError(page string) {
	if !s.recording.Load() {
		return
	}
	s.mu.Lock()
	c, ok := s.errs[page]
	if !ok {
		c = new(int64)
		s.errs[page] = c
	}
	s.mu.Unlock()
	atomic.AddInt64(c, 1)
}

func (s *Stats) histogram(page string) *metrics.Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.pages[page]
	if !ok {
		h = &metrics.Histogram{}
		s.pages[page] = h
	}
	return h
}

// Errors reports the number of failed interactions.
func (s *Stats) Errors() int64 {
	var total int64
	for _, p := range s.Pages() {
		total += p.Errors
	}
	return total
}

// PageResult is one page's client-side summary.
type PageResult struct {
	Page   string
	Count  int64
	Errors int64
	Mean   time.Duration // wall time; divide through the timescale for paper seconds
	P90    time.Duration
	Max    time.Duration
}

// Pages returns per-page summaries sorted by page name, including pages
// seen only through failures.
func (s *Stats) Pages() []PageResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PageResult, 0, len(s.pages))
	seen := make(map[string]bool, len(s.pages))
	for page, h := range s.pages {
		snap := h.Snapshot()
		seen[page] = true
		out = append(out, PageResult{
			Page:   page,
			Count:  snap.Count,
			Errors: s.pageErrorsLocked(page),
			Mean:   snap.Mean,
			P90:    snap.P90,
			Max:    snap.Max,
		})
	}
	for page := range s.errs {
		if !seen[page] {
			out = append(out, PageResult{Page: page, Errors: s.pageErrorsLocked(page)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	return out
}

// pageErrorsLocked reads one page's error count. Callers hold s.mu.
func (s *Stats) pageErrorsLocked(page string) int64 {
	c, ok := s.errs[page]
	if !ok {
		return 0
	}
	return atomic.LoadInt64(c)
}

// Page returns one page's summary (zero value when unseen).
func (s *Stats) Page(page string) PageResult {
	s.mu.Lock()
	h, ok := s.pages[page]
	errs := s.pageErrorsLocked(page)
	s.mu.Unlock()
	if !ok {
		return PageResult{Page: page, Errors: errs}
	}
	snap := h.Snapshot()
	return PageResult{Page: page, Count: snap.Count, Errors: errs,
		Mean: snap.Mean, P90: snap.P90, Max: snap.Max}
}

// TotalInteractions sums completed page interactions.
func (s *Stats) TotalInteractions() int64 {
	var total int64
	for _, p := range s.Pages() {
		total += p.Count
	}
	return total
}
