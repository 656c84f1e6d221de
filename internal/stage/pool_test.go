// The worker-pool and bounded-queue contract of the paper's thread
// pools, run against stage.Stage from outside the package: Workers slots
// stand in for a pool's worker goroutines, and the line of callers
// waiting for a slot for its FIFO queue. The tests pin that the contract
// survived the pools' removal — bounded concurrency, spare tracking,
// FIFO order, and a Stop that drains.
package stage_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"stagedweb/internal/stage"
	"stagedweb/internal/webtest"
)

// In the external package: webtest imports stage, through server.
func TestMain(m *testing.M) { webtest.Main(m) }

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

// The queue is the stage's line: while the one slot is held, every
// Submitted item waits in it, and each Leave hands the slot to the
// oldest. Put is joining the line, Get is being handed the slot.

func TestQueueFIFO(t *testing.T) {
	got := make(chan int, 4)
	s := stage.New(stage.Config[int]{Name: "fifo", Workers: 1, QueueCap: 4,
		Work: func(v int) { got <- v }})
	mustEnter(t, s)
	for i := 1; i <= 4; i++ {
		if err := s.Submit(i); err != nil {
			t.Fatalf("Submit(%d): %v", i, err)
		}
	}
	s.Leave()
	s.Stop()
	for i := 1; i <= 4; i++ {
		if v := <-got; v != i {
			t.Fatalf("item %d ran at position %d", v, i)
		}
	}
}

func TestQueueWrapAround(t *testing.T) {
	out := make(chan int)
	s := stage.New(stage.Config[int]{Name: "wrap", Workers: 1, QueueCap: 2,
		Work: func(v int) { out <- v }})
	mustPut := func(v int) {
		t.Helper()
		if err := s.Submit(v); err != nil {
			t.Fatal(err)
		}
	}
	mustGet := func(want int) {
		t.Helper()
		select {
		case got := <-out:
			if got != want {
				t.Fatalf("got %d, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("item %d never ran", want)
		}
	}
	mustEnter(t, s)
	mustPut(1)
	mustPut(2)
	s.Leave()
	mustGet(1)
	mustPut(3) // wraps
	mustGet(2)
	mustGet(3)
	s.Stop()
	if d := s.Depth(); d != 0 {
		t.Fatalf("Depth = %d, want 0", d)
	}
}

// A caller finding every slot held waits in line until one is handed over.
func TestQueuePutBlocksWhenFull(t *testing.T) {
	s := stage.New(stage.Config[int]{Name: "full", Workers: 1, QueueCap: 1})
	mustEnter(t, s)
	done := make(chan error, 1)
	go func() { _, err := s.Enter(); done <- err }()
	select {
	case <-done:
		t.Fatal("Enter returned while every slot was held")
	case <-time.After(20 * time.Millisecond):
	}
	s.Leave()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("unblocked Enter: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Enter never unblocked")
	}
	s.Leave()
	s.Stop()
}

// A full line turns the caller away at once instead of blocking it.
func TestQueueTryPut(t *testing.T) {
	s := stage.New(stage.Config[int]{Name: "try", Workers: 1, QueueCap: 1, Work: func(int) {}})
	mustEnter(t, s)
	if err := s.Submit(1); err != nil {
		t.Fatalf("Submit with room in line = %v, want nil", err)
	}
	if err := s.Submit(2); !errors.Is(err, stage.ErrShed) {
		t.Fatalf("Submit on full line = %v, want ErrShed", err)
	}
	s.Leave()
	s.Stop()
	if err := s.Submit(3); !errors.Is(err, stage.ErrClosed) {
		t.Fatalf("Submit on stopped stage = %v, want ErrClosed", err)
	}
}

// Stop admits everyone already in line, in order, and nobody after.
func TestQueueCloseDrains(t *testing.T) {
	got := make(chan int, 2)
	s := stage.New(stage.Config[int]{Name: "drain", Workers: 1, QueueCap: 4,
		Work: func(v int) { got <- v }})
	mustEnter(t, s)
	_ = s.Submit(1)
	_ = s.Submit(2)
	stopped := make(chan struct{})
	go func() {
		s.Stop()
		close(stopped)
	}()
	waitFor(t, func() bool { return s.Stats().Closed })
	s.Leave()
	<-stopped
	if v := <-got; v != 1 {
		t.Fatalf("first drained = %d, want 1", v)
	}
	if v := <-got; v != 2 {
		t.Fatalf("second drained = %d, want 2", v)
	}
	if _, err := s.Enter(); !errors.Is(err, stage.ErrClosed) {
		t.Fatalf("Enter after drain = %v, want ErrClosed", err)
	}
}

func TestQueueCloseIdempotent(t *testing.T) {
	s := stage.New(stage.Config[int]{Name: "idem", Workers: 1})
	s.Stop()
	s.Stop()
	if _, err := s.Enter(); !errors.Is(err, stage.ErrClosed) {
		t.Fatalf("Enter on stopped stage = %v, want ErrClosed", err)
	}
	if !s.Stats().Closed {
		t.Fatal("Stats().Closed = false after Stop")
	}
}

func TestQueueStats(t *testing.T) {
	release := make(chan struct{})
	s := stage.New(stage.Config[int]{Name: "stats", Workers: 1, QueueCap: 4,
		Work: func(int) { <-release }})
	mustEnter(t, s)
	_ = s.Submit(1)
	_ = s.Submit(2)
	s.Leave() // hands the slot to item 1; item 2 still waits
	// Enqueued counts the first caller too, which found a free slot.
	st := s.Stats()
	if st.Enqueued != 3 || st.Dequeued != 2 || st.Depth != 1 || st.MaxDepth != 2 || st.QueueCap != 4 || st.Closed {
		t.Fatalf("Stats = %+v", st)
	}
	close(release)
	s.Stop()
}

// Eight producers contend for four slots; the line holds every producer
// that has to wait, so none is shed and every value gets through.
func TestQueueConcurrentProducersConsumers(t *testing.T) {
	s := stage.New(stage.Config[int]{Name: "prodcons", Workers: 4, QueueCap: 8})
	const producers, perP = 8, 200
	var consumed sync.Map
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(base int) {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				if _, err := s.Enter(); err != nil {
					t.Errorf("Enter: %v", err)
					return
				}
				consumed.Store(base*perP+i, true)
				s.Leave()
			}
		}(p)
	}
	wg.Wait()
	s.Stop()

	count := 0
	consumed.Range(func(_, _ any) bool { count++; return true })
	if count != producers*perP {
		t.Fatalf("consumed %d distinct items, want %d", count, producers*perP)
	}
	if st := s.Stats(); st.Completed != producers*perP || st.Shed != 0 {
		t.Fatalf("Stats = %+v", st)
	}
}

// Property: for any sequence of items that fits the line, the slot is
// handed to them in the order they joined it.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(items []int16) bool {
		if len(items) == 0 {
			return true
		}
		got := make(chan int16, len(items))
		s := stage.New(stage.Config[int16]{Name: "prop", Workers: 1, QueueCap: len(items),
			Work: func(v int16) { got <- v }})
		if _, err := s.Enter(); err != nil {
			return false
		}
		for _, it := range items {
			if s.Submit(it) != nil {
				return false
			}
		}
		s.Leave()
		s.Stop()
		for _, want := range items {
			if <-got != want {
				return false
			}
		}
		return s.Depth() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func mustEnter[T any](t *testing.T, s *stage.Stage[T]) {
	t.Helper()
	if _, err := s.Enter(); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	if !webtest.WaitUntil(5*time.Second, cond) {
		t.Fatal("condition never became true")
	}
}
