// Package stage implements the generic stage-graph runtime both server
// variants are built on.
//
// A Stage is the paper's thread pool reduced to what it bounds: Workers
// slots and a FIFO line of callers waiting for one. It owns no
// goroutines. A caller takes a slot on its own goroutine with Enter,
// does the stage's work, and gives the slot back with Leave, which hands
// it straight to the oldest waiter; Submit does the same on a new
// goroutine for callers that hand work off. A stage may lend the slots
// it frees to another stage's line (LendTo), newest waiter first, and
// Enter tells a caller whose slot it holds. The stage tracks the gauges
// the DSN'09 evaluation reads: line depth (Figures 7 and 8), busy/spare
// slots (t_spare), completed, shed and lent slots. A Graph owns an ordered
// set of stages, stops them in flow order, and exposes one uniform
// stats snapshot for harnesses and operational tooling. A Graph has no
// Start: its stages take callers from New, and each server builds its
// graph once, in its constructor.
//
// The paper's fixed five-pool topology (package core), the
// thread-per-request baseline (package server) and the balancer's LB
// stage (package cluster) are all expressed over this runtime.
package stage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrClosed reports an Enter or Submit on a stopped stage.
var ErrClosed = errors.New("stage: closed")

// ErrShed reports a caller turned away because the stage's line was full.
var ErrShed = errors.New("stage: shed on full queue")

// Config describes one stage.
type Config[T any] struct {
	// Name identifies the stage in stats and panics. Required.
	Name string
	// Workers is the number of slots: how many callers may be inside the
	// stage at once. Required, positive.
	Workers int
	// QueueCap bounds the line of callers waiting for a slot; a caller
	// arriving at a full line is shed. Defaults to 4096.
	QueueCap int
	// Work processes one Submitted item while its goroutine holds a slot.
	// Stages used only through Enter and Leave leave it nil.
	Work func(T)
}

// Stage is one node of the graph: Workers slots and a bounded FIFO line
// of callers waiting for one.
type Stage[T any] struct {
	name    string
	workers int
	work    func(T)

	// busy counts held slots, lent ones included. It is written under mu
	// and read without it, so that t_spare costs the dispatcher one load.
	busy atomic.Int64

	// borrower's waiters get the slots this stage frees while lend holds,
	// and lender is the stage that lends to this one's waiters (LendTo).
	// They are set before the stages take callers and read without mu.
	borrower, lender *Stage[T]
	lend             func(spare int) bool

	mu sync.Mutex
	// line is a ring of the waiters' wake channels, oldest at head. A
	// channel receives true when the slot it is handed is the lender's.
	line    []chan bool
	head    int
	depth   int
	closed  bool
	drained chan struct{} // made by Stop, closed when the last slot is left

	enqueued  int64
	dequeued  int64
	completed int64
	shed      int64
	lent      int64
	maxDepth  int
}

// New builds a stage. It panics on an invalid configuration.
func New[T any](cfg Config[T]) *Stage[T] {
	if cfg.Name == "" {
		panic("stage: empty name")
	}
	if cfg.Workers <= 0 {
		panic(fmt.Sprintf("stage %q: non-positive worker count %d", cfg.Name, cfg.Workers))
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4096
	}
	return &Stage[T]{
		name:    cfg.Name,
		workers: cfg.Workers,
		work:    cfg.Work,
		line:    make([]chan bool, cfg.QueueCap),
	}
}

// LendTo makes s lend the slots it frees to to's waiters. A slot s frees
// while its own line is empty goes to the newest caller in to's line,
// provided lend holds for s's spare count after the release; otherwise
// it is freed. The caller learns from Enter that it holds a slot of s,
// and Leaves s. to keeps handing its own slots to its oldest waiter, so
// its line drains from both ends. lend runs with both stages' locks
// held, so it must not block or call either stage. Call LendTo before
// either stage takes callers.
func (s *Stage[T]) LendTo(to *Stage[T], lend func(spare int) bool) {
	if to == s || to.lender != nil || lend == nil {
		panic(fmt.Sprintf("stage %q: invalid lending to %q", s.name, to.name))
	}
	s.borrower, s.lend, to.lender = to, lend, s
}

// wakes recycles waiters' wake channels, so that waiting for a slot
// allocates nothing once the pool is warm. A channel goes back only
// after its one hand-over has been received, so it is always empty.
var wakes = sync.Pool{New: func() any { return make(chan bool, 1) }}

// Enter takes a slot for the calling goroutine, waiting in line behind
// every earlier caller when none is free, and returns the stage whose
// slot it holds: s, or s's lender when that lent it one (LendTo). A full
// line sheds the caller (ErrShed); a stopped stage reports ErrClosed. A
// nil error obliges the caller to Leave the stage returned.
func (s *Stage[T]) Enter() (*Stage[T], error) {
	wake, err := s.join()
	if err != nil {
		return nil, err
	}
	return s.await(wake), nil
}

// join takes a free slot at once (returning a nil channel) or a place at
// the back of the line, whose channel receives the slot.
func (s *Stage[T]) join() (chan bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("%w: %s", ErrClosed, s.name)
	}
	if s.busy.Load() < int64(s.workers) {
		s.enqueued++
		s.dequeued++
		s.busy.Add(1)
		return nil, nil
	}
	if s.depth == len(s.line) {
		s.shed++
		return nil, fmt.Errorf("%w: %s", ErrShed, s.name)
	}
	wake := wakes.Get().(chan bool)
	s.line[(s.head+s.depth)%len(s.line)] = wake
	s.depth++
	s.enqueued++
	s.maxDepth = max(s.maxDepth, s.depth)
	return wake, nil
}

// await blocks until a line place's slot is handed over and returns the
// stage that slot belongs to; a nil channel already holds one of s's.
func (s *Stage[T]) await(wake chan bool) *Stage[T] {
	if wake == nil {
		return s
	}
	lent := <-wake
	wakes.Put(wake)
	if lent {
		return s.lender
	}
	return s
}

// Leave gives the caller's slot back: straight to the oldest waiter if
// there is one, else lent to the newest waiter in the borrower's line
// when lend allows (LendTo), otherwise to the free count. A lent slot
// stays busy here until its new holder Leaves.
func (s *Stage[T]) Leave() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.completed++
	if s.depth > 0 {
		wake := s.line[s.head]
		s.line[s.head] = nil
		s.head = (s.head + 1) % len(s.line)
		s.depth--
		s.dequeued++
		wake <- false // buffered: never blocks
		return
	}
	if s.borrower != nil && s.borrower.borrow(s.lend, s.workers-int(s.busy.Load())+1) {
		s.lent++
		return
	}
	if s.busy.Add(-1) == 0 && s.drained != nil {
		close(s.drained)
	}
}

// borrow hands a lender's slot to the newest caller in s's line, if there
// is one and lend holds for the lender's spare count, and reports whether
// it did. The lender holds its own mu, which is always taken first.
func (s *Stage[T]) borrow(lend func(spare int) bool, spare int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.depth == 0 || !lend(spare) {
		return false
	}
	s.depth--
	tail := (s.head + s.depth) % len(s.line)
	wake := s.line[tail]
	s.line[tail] = nil
	s.dequeued++
	wake <- true // buffered: never blocks
	return true
}

// Submit runs Work(item) on a new goroutine once that goroutine holds a
// slot, and returns without waiting for it; the caller never runs Work.
// The item joins the line before Submit returns, so a full line sheds it
// (ErrShed) and a stopped stage refuses it (ErrClosed) synchronously.
func (s *Stage[T]) Submit(item T) error {
	wake, err := s.join()
	if err != nil {
		return err
	}
	go s.run(wake, item)
	return nil
}

func (s *Stage[T]) run(wake chan bool, item T) {
	held := s.await(wake)
	s.work(item)
	held.Leave()
}

// Start is a no-op: a stage has no goroutines to launch, and its slots
// are open from New. It exists so that callers that start what they
// build need not know that.
func (s *Stage[T]) Start() {}

// Stop refuses new callers and waits until every slot holder, and every
// caller already in line, has left. Idempotent.
func (s *Stage[T]) Stop() {
	s.mu.Lock()
	s.closed = true
	if s.busy.Load() == 0 {
		s.mu.Unlock()
		return
	}
	if s.drained == nil {
		s.drained = make(chan struct{})
	}
	drained := s.drained
	s.mu.Unlock()
	<-drained
}

// Name reports the stage name.
func (s *Stage[T]) Name() string { return s.name }

// Spare reports free slots — the paper's t_spare when read on the
// general dynamic stage.
func (s *Stage[T]) Spare() int { return s.workers - int(s.busy.Load()) }

// Depth reports how many callers are waiting in line — the quantity
// plotted in Figures 7 and 8.
func (s *Stage[T]) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depth
}

// Stats is one stage's uniform snapshot. Every caller that joins the line
// counts in Enqueued, including one that finds a free slot at once, and
// in Dequeued when it takes its slot, a lent one included, so Enqueued ==
// Dequeued + Depth. Completed counts Leaves, those of the holders of lent
// slots included, MaxDepth is the line's high-water mark, Shed counts
// callers turned away by a full line, and Lent counts the slots this
// stage passed to its borrower's waiters.
type Stats struct {
	Name      string
	Workers   int
	Busy      int
	Spare     int
	Depth     int
	QueueCap  int
	MaxDepth  int
	Enqueued  int64
	Dequeued  int64
	Completed int64
	Shed      int64
	Lent      int64
	Closed    bool
}

// Stats snapshots the stage's gauges and counters.
func (s *Stage[T]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	busy := int(s.busy.Load())
	return Stats{
		Name:      s.name,
		Workers:   s.workers,
		Busy:      busy,
		Spare:     s.workers - busy,
		Depth:     s.depth,
		QueueCap:  len(s.line),
		MaxDepth:  s.maxDepth,
		Enqueued:  s.enqueued,
		Dequeued:  s.dequeued,
		Completed: s.completed,
		Shed:      s.shed,
		Lent:      s.lent,
		Closed:    s.closed,
	}
}

// String renders a compact one-line view, e.g.
// "general[workers:21 busy:3 depth:0/4096 completed:9 shed:0]".
func (s Stats) String() string {
	return fmt.Sprintf("%s[workers:%d busy:%d depth:%d/%d completed:%d shed:%d]",
		s.Name, s.Workers, s.Busy, s.Depth, s.QueueCap, s.Completed, s.Shed)
}
