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
	if _, err := s.Enter(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Enter after Stop = %v, want ErrClosed", err)
	}
}

// A caller arriving at a full line is shed at once, whether it would
// have waited itself (Enter) or on a new goroutine (Submit).
func TestStageShedPolicy(t *testing.T) {
	s := New(Config[int]{Name: "sheddy", Workers: 1, QueueCap: 1, Work: func(int) {}})
	if _, err := s.Enter(); err != nil {
		t.Fatal(err)
	}
	// The one slot is held; the next caller fills the line.
	waiter := enterInBackground(t, s)
	waitFor(t, func() bool { return s.Depth() == 1 })
	if _, err := s.Enter(); !errors.Is(err, ErrShed) {
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
	if _, err := s.Enter(); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(2); err != nil {
		t.Fatal(err)
	}
	shed := make(chan error, 1)
	go func() { _, err := s.Enter(); shed <- err }()
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
		if _, err := s.Enter(); err != nil {
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
				if _, err := s.Enter(); err != nil {
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
		if _, err := s.Enter(); err != nil {
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
				if _, err := s.Enter(); err != nil {
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
		if _, err := s.Enter(); err != nil {
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
	if _, err := s.Enter(); err != nil {
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
	if _, err := s.Enter(); !errors.Is(err, ErrClosed) {
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

// lendingPair builds a general stage that lends to a lengthy one while
// lend holds, as the staged server's general and lengthy pools do.
func lendingPair(generalWorkers, lengthyWorkers int, lend func(spare int) bool) (general, lengthy *Stage[int]) {
	general = New(Config[int]{Name: "general", Workers: generalWorkers, QueueCap: 64})
	lengthy = New(Config[int]{Name: "lengthy", Workers: lengthyWorkers, QueueCap: 64})
	general.LendTo(lengthy, lend)
	return general, lengthy
}

// mustHold takes a slot of s on the test goroutine and checks that it is
// s's own.
func mustHold(t *testing.T, s *Stage[int]) {
	t.Helper()
	held, err := s.Enter()
	if err != nil || held != s {
		t.Fatalf("Enter on %s = %v, %v", s.Name(), held, err)
	}
}

// queueWaiters puts n background callers in s's line, in order.
func queueWaiters(t *testing.T, s *Stage[int], n int) []*waiter {
	t.Helper()
	base := s.Depth()
	ws := make([]*waiter, n)
	for i := range ws {
		ws[i] = enterInBackground(t, s)
		waitFor(t, func() bool { return s.Depth() == base+i+1 })
	}
	return ws
}

// TestStageLendsToNewestWaiter: a slot the lender frees with its own line
// empty goes to the newest caller in the borrower's line, whose Enter
// reports the lender; the borrower's own releases still go oldest-first.
func TestStageLendsToNewestWaiter(t *testing.T) {
	general, lengthy := lendingPair(1, 1, func(int) bool { return true })
	mustHold(t, general)
	mustHold(t, lengthy)
	ws := queueWaiters(t, lengthy, 3)

	general.Leave()
	ws[2].await(t)
	if ws[2].held != general {
		t.Fatalf("lent slot reported as %s's, want general's", ws[2].held.Name())
	}
	if g := general.Stats(); g.Busy != 1 || g.Lent != 1 {
		t.Fatalf("a lent slot left general's busy count: %+v", g)
	}
	if ws[0].isInside() || ws[1].isInside() {
		t.Fatal("an older waiter took the lent slot")
	}

	lengthy.Leave()
	ws[0].await(t)
	if ws[0].held != lengthy {
		t.Fatalf("lengthy's own slot reported as %s's", ws[0].held.Name())
	}
	if ws[1].isInside() {
		t.Fatal("lengthy handed its slot to a newer waiter")
	}

	// The lent holder gives the slot back to general; with lengthy's line
	// still holding ws[1], general lends it again.
	close(ws[2].release)
	ws[1].await(t)
	if ws[1].held != general {
		t.Fatalf("second lent slot reported as %s's", ws[1].held.Name())
	}
	close(ws[0].release)
	close(ws[1].release)
	general.Stop()
	lengthy.Stop()
	if g, l := general.Stats(), lengthy.Stats(); g.Lent != 2 || g.Busy != 0 || l.Lent != 0 || l.Busy != 0 {
		t.Fatalf("after both stopped: %+v, %+v", g, l)
	}
}

// TestStageServesOwnLineBeforeLending: a waiter in the lender's own line
// always gets the freed slot before the borrower's line is looked at.
func TestStageServesOwnLineBeforeLending(t *testing.T) {
	var asked atomic.Int64
	general, lengthy := lendingPair(1, 1, func(int) bool { asked.Add(1); return true })
	mustHold(t, general)
	mustHold(t, lengthy)
	lw := queueWaiters(t, lengthy, 1)[0]
	gw := queueWaiters(t, general, 1)[0]

	general.Leave()
	gw.await(t)
	if gw.held != general {
		t.Fatalf("general's waiter holds %s's slot", gw.held.Name())
	}
	if lw.isInside() || asked.Load() != 0 || general.Stats().Lent != 0 {
		t.Fatalf("general lent with its own line waiting (asked %d, lent %d)", asked.Load(), general.Stats().Lent)
	}

	// general's line is empty now: its next release is lent.
	close(gw.release)
	lw.await(t)
	if lw.held != general || general.Stats().Lent != 1 {
		t.Fatalf("lengthy's waiter holds %s's slot, lent %d", lw.held.Name(), general.Stats().Lent)
	}
	close(lw.release)
	lengthy.Leave()
	general.Stop()
	lengthy.Stop()
}

// TestStageFreesSlotWhenLendingRefused: when the check fails for the
// spare count after the release, the slot is freed and the borrower's
// waiter stays in line; a later change of the check lends nothing until
// the next release, since nothing polls.
func TestStageFreesSlotWhenLendingRefused(t *testing.T) {
	var allow atomic.Bool
	var spares []int
	general, lengthy := lendingPair(2, 1, func(spare int) bool {
		spares = append(spares, spare) // called under general's lock
		return allow.Load()
	})
	mustHold(t, general)
	mustHold(t, general)
	mustHold(t, lengthy)
	w := queueWaiters(t, lengthy, 1)[0]

	general.Leave()
	if g := general.Stats(); g.Busy != 1 || g.Lent != 0 || lengthy.Depth() != 1 || w.isInside() {
		t.Fatalf("refused lend: general %+v, lengthy depth %d", g, lengthy.Depth())
	}
	allow.Store(true)
	time.Sleep(10 * time.Millisecond)
	if w.isInside() || lengthy.Depth() != 1 {
		t.Fatal("a waiter took a free slot with no release")
	}
	general.Leave()
	w.await(t)
	if w.held != general {
		t.Fatalf("waiter holds %s's slot", w.held.Name())
	}
	// Each check saw the spare count after its release: 1 of 2, then 2.
	if len(spares) != 2 || spares[0] != 1 || spares[1] != 2 {
		t.Fatalf("lend checked spare counts %v, want [1 2]", spares)
	}
	if g := general.Stats(); g.Busy != 1 || g.Lent != 1 || g.Spare != 1 {
		t.Fatalf("after the lend: %+v", g)
	}
	close(w.release)
	lengthy.Leave()
	general.Stop()
	lengthy.Stop()
}

// TestStageStopWaitsForLentHolder: a lent slot stays busy on the lender,
// so the lender's Stop returns only once its holder has left; a
// Submitted item that is lent a slot gives it back to the lender too.
func TestStageStopWaitsForLentHolder(t *testing.T) {
	general, lengthy := lendingPair(1, 1, func(int) bool { return true })
	mustHold(t, general)
	mustHold(t, lengthy)
	w := queueWaiters(t, lengthy, 1)[0]
	general.Leave()
	w.await(t)

	stopped := make(chan struct{})
	go func() {
		general.Stop()
		close(stopped)
	}()
	waitFor(t, func() bool { return general.Stats().Closed })
	select {
	case <-stopped:
		t.Fatal("general's Stop returned while its lent slot was held")
	case <-time.After(10 * time.Millisecond):
	}
	close(w.release)
	<-stopped
	if g, l := general.Stats(), lengthy.Stats(); g.Busy != 0 || g.Completed != 2 || l.Busy != 1 || l.Completed != 0 {
		t.Fatalf("after the lent holder left: %+v, %+v", g, l)
	}
	lengthy.Leave()
	lengthy.Stop()

	ran := make(chan struct{})
	general = New(Config[int]{Name: "general", Workers: 1})
	lengthy = New(Config[int]{Name: "lengthy", Workers: 1, Work: func(int) { close(ran) }})
	general.LendTo(lengthy, func(int) bool { return true })
	mustHold(t, general)
	mustHold(t, lengthy)
	if err := lengthy.Submit(1); err != nil {
		t.Fatal(err)
	}
	general.Leave()
	<-ran
	general.Stop()
	if g, l := general.Stats(), lengthy.Stats(); g.Busy != 0 || g.Completed != 2 || g.Lent != 1 || l.Busy != 1 || l.Depth != 0 {
		t.Fatalf("after the lent Submit: %+v, %+v", g, l)
	}
	lengthy.Leave()
	lengthy.Stop()
}

// TestStageLendingStatsExact walks a lending pair through a known
// sequence and checks both stages' counters at each step: a lent slot
// counts in the borrower's Dequeued and, when its holder leaves, in the
// lender's Completed, and stays in the lender's Busy throughout.
func TestStageLendingStatsExact(t *testing.T) {
	general, lengthy := lendingPair(2, 1, func(int) bool { return true })
	type want struct {
		busy, depth int
		enq, deq    int64
		done, lent  int64
	}
	check := func(step string, s *Stage[int], w want) {
		t.Helper()
		st := s.Stats()
		if st.Busy != w.busy || st.Spare != st.Workers-w.busy || st.Depth != w.depth ||
			st.Enqueued != w.enq || st.Dequeued != w.deq || st.Completed != w.done || st.Lent != w.lent {
			t.Fatalf("%s: %s = %+v, want %+v", step, s.Name(), st, w)
		}
		if st.Enqueued != st.Dequeued+int64(st.Depth) {
			t.Fatalf("%s: %s: Enqueued != Dequeued + Depth: %+v", step, s.Name(), st)
		}
	}
	mustHold(t, general)
	mustHold(t, general)
	mustHold(t, lengthy)
	ws := queueWaiters(t, lengthy, 2)
	check("full", general, want{busy: 2, enq: 2, deq: 2})
	check("full", lengthy, want{busy: 1, depth: 2, enq: 3, deq: 1})

	general.Leave()
	ws[1].await(t)
	check("lent", general, want{busy: 2, enq: 2, deq: 2, done: 1, lent: 1})
	check("lent", lengthy, want{busy: 1, depth: 1, enq: 3, deq: 2})

	lengthy.Leave()
	ws[0].await(t)
	check("handed over", general, want{busy: 2, enq: 2, deq: 2, done: 1, lent: 1})
	check("handed over", lengthy, want{busy: 1, enq: 3, deq: 3, done: 1})

	close(ws[1].release)
	waitFor(t, func() bool { return general.Stats().Completed == 2 })
	check("lent holder left", general, want{busy: 1, enq: 2, deq: 2, done: 2, lent: 1})

	close(ws[0].release)
	waitFor(t, func() bool { return lengthy.Stats().Completed == 2 })
	check("lengthy drained", lengthy, want{enq: 3, deq: 3, done: 2})

	general.Leave()
	general.Stop()
	lengthy.Stop()
	check("stopped", general, want{enq: 2, deq: 2, done: 3, lent: 1})
	check("stopped", lengthy, want{enq: 3, deq: 3, done: 2})
}

// TestStageLendingHammer: callers of both stages contend while the lend
// check flips. General's slots, lent ones included, are never more than
// its Workers, lengthy's own never more than its, and every Enter is
// matched by exactly one Leave on the stage it reported.
func TestStageLendingHammer(t *testing.T) {
	const goroutines, rounds, gWorkers, lWorkers = 32, 200, 3, 1
	var flip atomic.Int64
	general, lengthy := lendingPair(gWorkers, lWorkers, func(spare int) bool {
		if spare < 1 || spare > gWorkers {
			t.Errorf("lend asked with spare %d of %d", spare, gWorkers)
		}
		return flip.Add(1)%3 != 0
	})
	var inside [2]atomic.Int64 // 0: general's slots, 1: lengthy's
	var entered [2]atomic.Int64
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := general
				if (g+r)%2 == 0 {
					s = lengthy
				}
				held, err := s.Enter()
				if err != nil {
					t.Error(err)
					return
				}
				if held != s && (s != lengthy || held != general) {
					t.Errorf("Enter on %s reported %s", s.Name(), held.Name())
					return
				}
				i, limit := 0, int64(gWorkers)
				if held == lengthy {
					i, limit = 1, lWorkers
				}
				entered[i].Add(1)
				if n := inside[i].Add(1); n > limit {
					t.Errorf("%d callers inside %s's %d slots", n, held.Name(), limit)
				}
				if r%16 == 0 {
					for _, st := range []Stats{general.Stats(), lengthy.Stats()} {
						if st.Enqueued != st.Dequeued+int64(st.Depth) || st.Busy > st.Workers || st.Busy < 0 {
							t.Errorf("unbalanced snapshot: %+v", st)
						}
					}
				}
				inside[i].Add(-1)
				held.Leave()
			}
		}()
	}
	wg.Wait()
	if g := general.Stats(); g.Busy != 0 {
		t.Fatalf("general busy %d with every caller gone", g.Busy)
	}
	general.Stop()
	lengthy.Stop()
	g, l := general.Stats(), lengthy.Stats()
	if g.Completed != entered[0].Load() || l.Completed != entered[1].Load() {
		t.Fatalf("Leaves %d/%d, Enters reporting general/lengthy %d/%d",
			g.Completed, l.Completed, entered[0].Load(), entered[1].Load())
	}
	if g.Busy != 0 || l.Busy != 0 || g.Depth != 0 || l.Depth != 0 ||
		g.Enqueued+l.Enqueued != goroutines*rounds || g.Completed+l.Completed != goroutines*rounds ||
		g.Completed != g.Dequeued+g.Lent || l.Dequeued != l.Completed+g.Lent {
		t.Fatalf("after the hammer: %+v, %+v", g, l)
	}
	t.Logf("general lent %d of %d lengthy entries", g.Lent, l.Dequeued)
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
// a slot of the stage held, and it Leaves that stage when release is
// closed.
type waiter struct {
	inside, release chan struct{}
	held            *Stage[int] // set before inside is closed
}

func enterInBackground(t *testing.T, s *Stage[int]) *waiter {
	w := &waiter{inside: make(chan struct{}), release: make(chan struct{})}
	go func() {
		held, err := s.Enter()
		if err != nil {
			t.Errorf("background Enter: %v", err)
			return
		}
		w.held = held
		close(w.inside)
		<-w.release
		held.Leave()
	}()
	return w
}

// await waits until w holds a slot, failing the test after 5 s.
func (w *waiter) await(t *testing.T) {
	t.Helper()
	select {
	case <-w.inside:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never got a slot")
	}
}

// isInside reports whether w holds a slot yet.
func (w *waiter) isInside() bool {
	select {
	case <-w.inside:
		return true
	default:
		return false
	}
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
