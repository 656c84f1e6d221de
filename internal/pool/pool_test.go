// Package pool_test holds the worker-pool and bounded-queue contract
// tests of the paper's thread pools. The pools themselves are gone:
// stage.Stage provides both halves, Workers slots standing in for the
// pool's worker goroutines and the line of callers waiting for a slot
// standing in for its FIFO queue. These tests pin that the contract
// survived the move — bounded concurrency, spare tracking, FIFO order,
// and a Stop that drains — and are run against stage.Stage.
package pool_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stagedweb/internal/stage"
)

func TestPoolProcessesAll(t *testing.T) {
	var sum atomic.Int64
	s := stage.New(stage.Config[int]{Name: "test", Workers: 4, QueueCap: 128,
		Work: func(v int) { sum.Add(int64(v)) }})
	s.Start()
	total := 0
	for i := 1; i <= 100; i++ {
		if err := s.Submit(i); err != nil {
			t.Fatal(err)
		}
		total += i
	}
	s.Stop()
	if got := sum.Load(); got != int64(total) {
		t.Fatalf("sum = %d, want %d", got, total)
	}
	if got := s.Stats().Completed; got != 100 {
		t.Fatalf("Completed = %d, want 100", got)
	}
}

func TestPoolSpareTracking(t *testing.T) {
	s := stage.New(stage.Config[chan struct{}]{Name: "test", Workers: 4, QueueCap: 16,
		Work: func(release chan struct{}) { <-release }})
	defer s.Stop()

	if got := s.Spare(); got != 4 {
		t.Fatalf("initial Spare = %d, want 4", got)
	}

	releases := make([]chan struct{}, 3)
	for i := range releases {
		releases[i] = make(chan struct{})
		if err := s.Submit(releases[i]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return s.Stats().Busy == 3 })
	if got := s.Spare(); got != 1 {
		t.Fatalf("Spare with 3 busy = %d, want 1", got)
	}
	for _, r := range releases {
		close(r)
	}
	waitFor(t, func() bool { return s.Spare() == 4 })
}

func TestPoolStopWaitsForInFlight(t *testing.T) {
	var finished atomic.Bool
	started := make(chan struct{})
	s := stage.New(stage.Config[struct{}]{Name: "test", Workers: 1, QueueCap: 1,
		Work: func(struct{}) {
			close(started)
			time.Sleep(30 * time.Millisecond)
			finished.Store(true)
		}})
	if err := s.Submit(struct{}{}); err != nil {
		t.Fatal(err)
	}
	<-started
	s.Stop()
	if !finished.Load() {
		t.Fatal("Stop returned before in-flight work finished")
	}
}

func TestPoolStopDrainsQueue(t *testing.T) {
	var n atomic.Int64
	s := stage.New(stage.Config[int]{Name: "test", Workers: 2, QueueCap: 64,
		Work: func(int) { n.Add(1) }})
	for i := 0; i < 50; i++ {
		if err := s.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	s.Stop()
	if got := n.Load(); got != 50 {
		t.Fatalf("processed %d, want 50 (Stop must drain)", got)
	}
}

// A stage launches nothing on Start, so the lifecycle check lives on the
// graph that starts and stops it.
func TestPoolDoubleStartPanics(t *testing.T) {
	g := stage.NewGraph().Add(stage.New(stage.Config[int]{Name: "test", Workers: 1}))
	g.Start()
	defer g.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	g.Start()
}

func TestPoolInvalidConfigPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero size":     func() { stage.New(stage.Config[int]{Name: "x", Workers: 0}) },
		"negative size": func() { stage.New(stage.Config[int]{Name: "x", Workers: -1}) },
		"no name":       func() { stage.New(stage.Config[int]{Workers: 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPoolBoundedConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	var mu sync.Mutex
	s := stage.New(stage.Config[struct{}]{Name: "test", Workers: 3, QueueCap: 128,
		Work: func(struct{}) {
			c := cur.Add(1)
			mu.Lock()
			if c > peak.Load() {
				peak.Store(c)
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		}})
	for i := 0; i < 60; i++ {
		if err := s.Submit(struct{}{}); err != nil {
			t.Fatal(err)
		}
	}
	s.Stop()
	if got := peak.Load(); got > 3 {
		t.Fatalf("peak concurrency %d exceeds pool size 3", got)
	}
}

func TestPoolAccessors(t *testing.T) {
	s := stage.New(stage.Config[int]{Name: "header-parsing", Workers: 5, QueueCap: 2})
	if s.Name() != "header-parsing" {
		t.Fatalf("Name = %q", s.Name())
	}
	st := s.Stats()
	if st.Name != "header-parsing" || st.Workers != 5 || st.QueueCap != 2 {
		t.Fatalf("Stats = %+v", st)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
