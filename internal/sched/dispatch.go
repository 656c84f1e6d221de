package sched

import "sync/atomic"

// Target is the dynamic-request pool a request is dispatched to.
type Target int

const (
	// General is the general dynamic request pool: all quick requests,
	// plus lengthy requests while spare capacity is abundant.
	General Target = iota + 1
	// Lengthy is the lengthy dynamic request pool.
	Lengthy
)

func (t Target) String() string {
	switch t {
	case General:
		return "general"
	case Lengthy:
		return "lengthy"
	default:
		return "unknown"
	}
}

// Dispatcher applies Table 1 of the paper:
//
//	quick request                              -> general pool
//	lengthy request and t_spare >  t_reserve   -> general pool
//	lengthy request and t_spare <= t_reserve   -> lengthy pool
//
// The table is applied at arrival (Choose) and again whenever the general
// pool releases a slot with its own line empty: Overflow, the second row,
// decides whether that slot goes to a lengthy request already waiting in
// line. The staged server hands such a slot to the newest lengthy waiter
// while the lengthy pool serves its own line oldest-first, so the line
// drains from both ends, in the manner of adaptive LIFO under overload
// (Maurer, "Fail at Scale", ACM Queue 13(8), 2015): about half the
// lengthy pages skip the line instead of every one waiting it out.
type Dispatcher struct {
	cls   *Classifier
	rc    *ReserveController
	spare func() int // live spare-thread count of the general pool

	// Choose's decisions, by target pool.
	toGeneral, toLengthy atomic.Int64
}

// NewDispatcher wires the classifier, reserve controller, and the general
// pool's spare-count source.
func NewDispatcher(cls *Classifier, rc *ReserveController, spare func() int) *Dispatcher {
	if cls == nil || rc == nil || spare == nil {
		panic("sched: nil dispatcher dependency")
	}
	return &Dispatcher{cls: cls, rc: rc, spare: spare}
}

// Choose picks the pool for a dynamic request identified by its page key,
// and reports whether the request classified lengthy: a lengthy request
// sent to the general pool holds a slot the reserve gave up.
func (d *Dispatcher) Choose(key string) (t Target, lengthy bool) {
	t, lengthy = d.choose(key)
	if t == Lengthy {
		d.toLengthy.Add(1)
	} else {
		d.toGeneral.Add(1)
	}
	return t, lengthy
}

// Dispatched reports Choose's decisions so far, by target pool.
func (d *Dispatcher) Dispatched() (general, lengthy int64) {
	return d.toGeneral.Load(), d.toLengthy.Load()
}

func (d *Dispatcher) choose(key string) (Target, bool) {
	if !d.cls.Lengthy(key) {
		return General, false
	}
	if d.Overflow(d.spare()) {
		return General, true
	}
	return Lengthy, true
}

// Overflow is Table 1's second row: whether a lengthy request may take a
// general slot when the general pool has spare slots free, that is
// whether t_spare exceeds t_reserve.
func (d *Dispatcher) Overflow(spare int) bool { return spare > d.rc.Reserve() }

// Classifier exposes the dispatcher's classifier (for recording
// measurements and for diagnostics).
func (d *Dispatcher) Classifier() *Classifier { return d.cls }

// ReserveController exposes the dispatcher's controller.
func (d *Dispatcher) ReserveController() *ReserveController { return d.rc }
