package stage

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestStageProcessesItems(t *testing.T) {
	// Submit never runs Work on the caller: this Work sends on an
	// unbuffered channel only the submitting goroutine receives from.
	picked := make(chan int)
	s := New(Config[int]{Name: "handoff", Workers: 1, Work: func(n int) { picked <- n }})
	if err := s.Submit(7); err != nil {
		t.Fatal(err)
	}
	if got := <-picked; got != 7 {
		t.Fatalf("picked %d, want 7", got)
	}
	s.Stop()

	var sum atomic.Int64
	s = New(Config[int]{Name: "adder", Workers: 4, QueueCap: 128, Work: func(n int) {
		sum.Add(int64(n))
	}})
	s.Start()
	for i := 1; i <= 100; i++ {
		if err := s.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	s.Stop()
	if got := sum.Load(); got != 5050 {
		t.Fatalf("sum = %d, want 5050", got)
	}
	st := s.Stats()
	if st.Completed != 100 || st.Enqueued != 100 || st.Dequeued != 100 {
		t.Fatalf("stats = %+v", st)
	}
	if !st.Closed || st.Busy != 0 || st.Depth != 0 {
		t.Fatalf("post-stop stats = %+v", st)
	}
}

func TestStageSubmitAfterStop(t *testing.T) {
	s := New(Config[int]{Name: "x", Workers: 1, Work: func(int) {}})
	s.Stop()
	if err := s.Submit(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Stop = %v, want ErrClosed", err)
	}
	if err := s.Enter(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Enter after Stop = %v, want ErrClosed", err)
	}
}

// A caller arriving at a full line is shed at once, whether it would
// have waited itself (Enter) or on a new goroutine (Submit).
func TestStageShedPolicy(t *testing.T) {
	s := New(Config[int]{Name: "sheddy", Workers: 1, QueueCap: 1, Work: func(int) {}})
	if err := s.Enter(); err != nil {
		t.Fatal(err)
	}
	// The one slot is held; the next caller fills the line.
	waiter := enterInBackground(t, s)
	waitFor(t, func() bool { return s.Depth() == 1 })
	if err := s.Enter(); !errors.Is(err, ErrShed) {
		t.Fatalf("Enter on a full line = %v, want ErrShed", err)
	}
	if err := s.Submit(3); !errors.Is(err, ErrShed) {
		t.Fatalf("Submit on a full line = %v, want ErrShed", err)
	}
	if got := s.Stats().Shed; got != 2 {
		t.Fatalf("Shed = %d, want 2", got)
	}
	s.Leave()
	<-waiter.inside
	close(waiter.release)
	s.Stop()
	if st := s.Stats(); st.Completed != 2 || st.Enqueued != 2 {
		t.Fatalf("shed callers counted as admitted: %+v", st)
	}
}

// A stage built with no shedding option turns a caller away from a full
// line at once rather than blocking it. The name is from when only the
// non-blocking Offer did that and such a stage otherwise blocked.
func TestStageOfferShedsOnBlockStage(t *testing.T) {
	s := New(Config[int]{Name: "blocky", Workers: 1, QueueCap: 1, Work: func(int) {}})
	if err := s.Enter(); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(2); err != nil {
		t.Fatal(err)
	}
	shed := make(chan error, 1)
	go func() { shed <- s.Enter() }()
	select {
	case err := <-shed:
		if !errors.Is(err, ErrShed) {
			t.Fatalf("Enter on full line = %v, want ErrShed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Enter blocked on a full line")
	}
	if s.Stats().Shed != 1 {
		t.Fatalf("Shed = %d, want 1", s.Stats().Shed)
	}
	s.Leave()
	s.Stop()
}

func TestStageGauges(t *testing.T) {
	s := New(Config[int]{Name: "gauges", Workers: 2, QueueCap: 8})
	if st := s.Stats(); st.Name != "gauges" || st.Workers != 2 || st.Spare != 2 || st.Depth != 0 || st.QueueCap != 8 {
		t.Fatalf("idle gauges: %+v", st)
	}
	for i := 0; i < 2; i++ {
		if err := s.Enter(); err != nil {
			t.Fatal(err)
		}
	}
	w := enterInBackground(t, s)
	waitFor(t, func() bool { return s.Depth() == 1 })
	if s.Spare() != 0 || s.Stats().Busy != 2 {
		t.Fatalf("saturated gauges: %+v", s.Stats())
	}
	s.Leave()
	<-w.inside
	s.Leave()
	close(w.release)
	s.Stop()
	if s.Spare() != 2 || s.Stats().MaxDepth != 1 {
		t.Fatalf("drained gauges: %+v", s.Stats())
	}
	if got := s.Stats().String(); !strings.Contains(got, "gauges[") {
		t.Fatalf("Stats.String = %q", got)
	}
}

func TestStageConfigValidation(t *testing.T) {
	assertPanics(t, "empty name", func() { New(Config[int]{Workers: 1}) })
	assertPanics(t, "zero workers", func() { New(Config[int]{Name: "x"}) })
}

// TestStageSlotLimitHammer: however many goroutines contend, no more than
// Workers are ever inside, and every snapshot balances its counters.
func TestStageSlotLimitHammer(t *testing.T) {
	const goroutines, rounds, workers = 64, 200, 3
	s := New(Config[int]{Name: "hammer", Workers: workers})
	var inside, peak atomic.Int64
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := s.Enter(); err != nil {
					t.Error(err)
					return
				}
				n := inside.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				if r%16 == 0 {
					if st := s.Stats(); st.Enqueued != st.Dequeued+int64(st.Depth) || st.Busy > workers {
						t.Errorf("unbalanced snapshot: %+v", st)
					}
				}
				inside.Add(-1)
				s.Leave()
			}
		}()
	}
	wg.Wait()
	s.Stop()
	if p := peak.Load(); p > workers {
		t.Fatalf("peak %d callers inside a %d-slot stage", p, workers)
	}
	st := s.Stats()
	if st.Completed != goroutines*rounds || st.Enqueued != st.Completed || st.Dequeued != st.Completed || st.Busy != 0 || st.Depth != 0 {
		t.Fatalf("stats after the hammer: %+v", st)
	}
}

// TestStageFIFOHandOver: Leave hands the slot to waiters in the order
// they joined the line, across several wraps of the line's ring.
func TestStageFIFOHandOver(t *testing.T) {
	s := New(Config[int]{Name: "fifo", Workers: 1, QueueCap: 4})
	for round := 0; round < 4; round++ {
		if err := s.Enter(); err != nil {
			t.Fatal(err)
		}
		const waiters = 3
		var order []int
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.Enter(); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				s.Leave()
			}()
			waitFor(t, func() bool { return s.Depth() == i+1 })
		}
		s.Leave()
		wg.Wait()
		for i, got := range order {
			if got != i {
				t.Fatalf("round %d: slots handed over in order %v, want arrival order", round, order)
			}
		}
	}
}

// TestStageStatsExact walks a stage through a known sequence and checks
// every counter at each step.
func TestStageStatsExact(t *testing.T) {
	s := New(Config[int]{Name: "exact", Workers: 2, QueueCap: 8})
	check := func(step string, busy, depth, maxDepth int, enq, deq, done int64) {
		t.Helper()
		st := s.Stats()
		if st.Busy != busy || st.Depth != depth || st.MaxDepth != maxDepth ||
			st.Enqueued != enq || st.Dequeued != deq || st.Completed != done {
			t.Fatalf("%s: %+v", step, st)
		}
		if st.Enqueued != st.Dequeued+int64(st.Depth) {
			t.Fatalf("%s: Enqueued != Dequeued + Depth: %+v", step, st)
		}
	}
	check("idle", 0, 0, 0, 0, 0, 0)
	for i := 0; i < 2; i++ {
		if err := s.Enter(); err != nil {
			t.Fatal(err)
		}
	}
	check("slots taken", 2, 0, 0, 2, 2, 0)
	var ws []*waiter
	for i := 1; i <= 3; i++ {
		ws = append(ws, enterInBackground(t, s))
		waitFor(t, func() bool { return s.Depth() == i })
	}
	check("three in line", 2, 3, 3, 5, 2, 0)
	s.Leave()
	<-ws[0].inside
	check("one handed over", 2, 2, 3, 5, 3, 1)
	s.Leave()
	<-ws[1].inside
	close(ws[0].release)
	<-ws[2].inside
	check("line empty", 2, 0, 3, 5, 5, 3)
	close(ws[1].release)
	close(ws[2].release)
	s.Stop()
	check("stopped", 0, 0, 3, 5, 5, 5)
}

// TestStageStopWaitsForHoldersAndWaiters: Stop refuses newcomers at once
// but returns only after the slot holder and everyone already in line —
// callers of Enter and Submitted items alike — have had a slot and left.
func TestStageStopWaitsForHoldersAndWaiters(t *testing.T) {
	var ran atomic.Bool
	s := New(Config[int]{Name: "drain", Workers: 1, Work: func(int) { ran.Store(true) }})
	if err := s.Enter(); err != nil {
		t.Fatal(err)
	}
	w := enterInBackground(t, s)
	waitFor(t, func() bool { return s.Depth() == 1 })
	if err := s.Submit(1); err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	go func() {
		s.Stop()
		close(stopped)
	}()
	waitFor(t, func() bool { return s.Stats().Closed })
	if err := s.Enter(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Enter during Stop = %v, want ErrClosed", err)
	}
	if err := s.Submit(2); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit during Stop = %v, want ErrClosed", err)
	}
	select {
	case <-stopped:
		t.Fatal("Stop returned while a slot was held")
	default:
	}
	s.Leave()
	<-w.inside
	select {
	case <-stopped:
		t.Fatal("Stop returned while a waiter held the slot")
	default:
	}
	close(w.release)
	<-stopped
	if !ran.Load() {
		t.Fatal("Stop returned before the Submitted item in line had run")
	}
	if st := s.Stats(); st.Busy != 0 || st.Depth != 0 || st.Completed != 3 {
		t.Fatalf("after Stop: %+v", st)
	}
	s.Stop() // idempotent
}

func TestGraphLifecycleAndStats(t *testing.T) {
	var order []string
	var mu sync.Mutex
	noteStop := func(name string) {
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}

	// a feeds b: on Stop, a must fully drain before b closes so nothing
	// in flight is lost.
	var bDone atomic.Int64
	var b *Stage[int]
	b = New(Config[int]{Name: "b", Workers: 2, Work: func(int) {
		time.Sleep(time.Millisecond)
		bDone.Add(1)
	}})
	a := New(Config[int]{Name: "a", Workers: 2, Work: func(n int) {
		if err := b.Submit(n); err != nil {
			t.Errorf("downstream closed while upstream draining: %v", err)
		}
	}})

	g := NewGraph().Add(&stopNoter{Stage: a, note: noteStop}, &stopNoter{Stage: b, note: noteStop})
	g.Start()
	for i := 0; i < 50; i++ {
		if err := a.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	g.Stop()
	if got := bDone.Load(); got != 50 {
		t.Fatalf("items through both stages = %d, want 50", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("stop order = %v, want [a b]", order)
	}

	stats := g.Stats()
	if len(stats) != 2 || stats[0].Name != "a" || stats[1].Name != "b" {
		t.Fatalf("stats = %+v", stats)
	}
	for _, st := range stats {
		if !st.Closed || st.Busy != 0 || st.Depth != 0 {
			t.Fatalf("stage %s not drained: %+v", st.Name, st)
		}
	}
	if d := g.Depths(); d["a"] != 0 || d["b"] != 0 {
		t.Fatalf("Depths = %v", d)
	}
	if _, ok := g.Stage("a"); !ok {
		t.Fatal("Stage(a) not found")
	}
	if _, ok := g.Stage("zzz"); ok {
		t.Fatal("Stage(zzz) found")
	}
	if s := g.String(); !strings.Contains(s, "a:2 -> b:2") {
		t.Fatalf("String = %q", s)
	}

	// Stop is idempotent.
	g.Stop()
}

func TestGraphValidation(t *testing.T) {
	mk := func(name string) *Stage[int] {
		return New(Config[int]{Name: name, Workers: 1})
	}
	assertPanics(t, "duplicate name", func() { NewGraph().Add(mk("dup"), mk("dup")) })
	assertPanics(t, "double start", func() {
		g := NewGraph().Add(mk("s"))
		g.Start()
		defer g.Stop()
		g.Start()
	})
	assertPanics(t, "add after start", func() {
		g := NewGraph().Add(mk("s1"))
		g.Start()
		defer g.Stop()
		g.Add(mk("s2"))
	})
}

// stopNoter wraps a stage to record Stop order.
type stopNoter struct {
	*Stage[int]
	note func(string)
}

func (n *stopNoter) Stop() {
	n.note(n.Name())
	n.Stage.Stop()
}

// waiter is a background caller of Enter: inside is closed once it holds
// a slot, and it Leaves when release is closed.
type waiter struct {
	inside, release chan struct{}
}

func enterInBackground(t *testing.T, s *Stage[int]) *waiter {
	w := &waiter{inside: make(chan struct{}), release: make(chan struct{})}
	go func() {
		if err := s.Enter(); err != nil {
			t.Errorf("background Enter: %v", err)
			return
		}
		close(w.inside)
		<-w.release
		s.Leave()
	}()
	return w
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}
