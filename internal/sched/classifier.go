// Package sched implements the DSN'09 request scheduling policy — the
// paper's primary contribution:
//
//   - a Classifier that tracks the mean data-generation time of every
//     dynamic page (measured from request acquisition to the moment its
//     unrendered template is queued for rendering, so template time never
//     pollutes the measurement) and classifies pages as quick or lengthy
//     against a cutoff (2 s in the paper);
//
//   - a ReserveController that maintains t_reserve, the shifting minimum
//     number of general-pool workers reserved for quick requests,
//     adjusted once per second from the measured spare count t_spare
//     (Section 3.3, Table 2) by a loop the staged server (internal/core)
//     runs on its clock; and
//
//   - a Dispatcher applying the three dispatch rules of Table 1.
package sched

import (
	"sync"
	"time"
)

// DefaultCutoff is the paper's quick/lengthy boundary: two seconds of
// data-generation time (paper time).
const DefaultCutoff = 2 * time.Second

// Classifier tracks mean data-generation time per page key.
//
// The paper tracks "the average time spent in generating data for each
// page"; a cumulative mean is used here. Pages never seen are quick —
// optimistic, like the paper's server, which can only learn a page is
// lengthy by serving it.
type Classifier struct {
	mu     sync.Mutex
	cutoff time.Duration
	stats  map[string]*pageStat
}

type pageStat struct {
	count int64
	total time.Duration
}

// NewClassifier returns a classifier with the given cutoff; use
// DefaultCutoff for the paper's configuration.
func NewClassifier(cutoff time.Duration) *Classifier {
	if cutoff <= 0 {
		panic("sched: non-positive classifier cutoff")
	}
	return &Classifier{cutoff: cutoff, stats: make(map[string]*pageStat, 32)}
}

// Record adds one data-generation time observation (paper time) for key.
func (c *Classifier) Record(key string, dataGen time.Duration) {
	if dataGen < 0 {
		dataGen = 0
	}
	c.mu.Lock()
	st, ok := c.stats[key]
	if !ok {
		st = &pageStat{}
		c.stats[key] = st
	}
	st.count++
	st.total += dataGen
	c.mu.Unlock()
}

// Lengthy reports whether key's mean data-generation time exceeds the
// cutoff. Unknown pages are quick.
func (c *Classifier) Lengthy(key string) bool {
	return c.Mean(key) > c.cutoff
}

// Mean reports the mean data-generation time for key (0 when unseen).
func (c *Classifier) Mean(key string) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.stats[key]
	if !ok || st.count == 0 {
		return 0
	}
	return st.total / time.Duration(st.count)
}
