// Package dbtier fronts a replicated database tier: one primary sqldb.DB
// plus N-1 read replicas cloned from it, behind the same Conn-shaped
// Query/Exec surface application handlers already use. Reads are routed
// round-robin across every backend; DML executes on the primary and is
// shipped to replicas through the primary's versioned replication log
// (sqldb.ReplLog): each replica has a dedicated applier goroutine that
// replays committed statements in commit order on its own non-pooled
// connection.
//
// Replication happens after primary commit, outside every lock. Two
// modes pick the consistency point:
//
//   - sync (default): Exec returns once every in-rotation replica has
//     applied the statement's CommitTS, so readers anywhere see the
//     write; the wait overlaps across replicas.
//   - async: Exec returns at primary commit, waiting only if the
//     slowest replica is more than maxLag commits behind (bounded
//     staleness backpressure). Replica reads may briefly return stale
//     rows; reads served by the primary still observe every committed
//     write (read-your-writes holds whenever the rotation lands there,
//     and always holds for data the handler re-reads via the primary).
//
// Failover (the dependability half): every replica backend carries a
// health state — active, ejected, resync. A replica that dies (fault
// injection via KillBackend, or repeated statement failures) or turns
// pathologically slow (SetBackendDelay beyond slowThreshold, 1 s) is
// ejected from the read rotation: reads fail over to the next healthy
// backend, and sync-mode writers stop waiting for it, so a dead replica
// degrades capacity instead of wedging the tier. While ejected its applied
// watermark no longer holds back replication-log truncation. When the
// backend comes back it enters resync: the applier catches up by
// replaying the log from its watermark, or — when the log has been
// truncated past that watermark — by swapping in a fresh CloneSnapshot
// of the primary and replaying from the snapshot point. The replica
// reintegrates into the rotation only once it has applied everything
// committed so far (checked under the same lock sync-mode writers use),
// so read-your-writes still holds across an eject/reintegrate cycle.
//
// The tier also owns the "precious database connection resources" the
// DSN'09 paper husbands: each backend engine has a fixed pool of
// connections (absorbing the former internal/dbpool package), and every
// statement acquires one through an instrumented path — an in-use gauge,
// a wait counter, and a wait-time histogram, surfaced by the server
// variants as the db.inuse / db.wait / db.queries probes. Acquisition
// is deadline-bounded (acquireTimeout, 10 paper-s): a pool starved by a
// dead backend or a connection leak yields ErrAcquireTimeout instead of
// blocking the handler forever. Applier connections are separate from
// the pools, so replication never starves read capacity. Because a
// pooled connection executes one statement at a time, the per-backend
// pool size is also the engine's statement concurrency.
//
// The servers never build a tier: internal/variant does, sizing the pools
// from the variant's worker budget, hands the server a Conn, and closes
// the tier once the server has stopped.
package dbtier

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/metrics"
	"stagedweb/internal/sqldb"
)

// ErrTierClosed is returned by statement execution after Close.
var ErrTierClosed = errors.New("dbtier: tier closed")

// ErrBackendDown is returned when a statement lands on a backend whose
// engine is down (fault injection). Reads fail over past it; the error
// only surfaces when no healthy backend remains.
var ErrBackendDown = errors.New("dbtier: backend down")

// ErrAcquireTimeout is returned when acquiring a pooled connection
// exceeds the tier's paper-time deadline — the bounded-wait replacement
// for blocking forever on a starved pool.
var ErrAcquireTimeout = errors.New("dbtier: connection acquisition timed out")

// Replication and failover settings, in paper time where durations.
// maxLag bounds how many commits the slowest replica may trail the
// primary in async mode before writers are backpressured.
// failThreshold is how many consecutive failures (statement errors on a
// down backend, or unhealthy health-check ticks) eject a replica from
// the read rotation. acquireTimeout bounds pooled-connection
// acquisition; slowThreshold ejects a replica whose injected statement
// latency exceeds it.
const (
	maxLag         = 256
	failThreshold  = 3
	acquireTimeout = 10 * time.Second
	slowThreshold  = time.Second
	healthInterval = time.Second
)

// Backend health states.
const (
	stateActive  int32 = iota // in the read rotation; sync writers wait for it
	stateEjected              // out of rotation; does not hold back log truncation
	stateResync               // healthy again, catching up; reintegrates when caught up
)

// Options configures a Tier.
type Options struct {
	// Replicas is the total number of backend engines, primary included.
	// Values below 1 mean 1: just the primary, no fan-out — exactly the
	// single-database behavior the tier replaces.
	Replicas int
	// Conns is the connection pool size per backend — the per-engine
	// statement concurrency. It must be positive.
	Conns int
	// Clock times acquisition waits and schedules health checks;
	// defaults to the real clock.
	Clock clock.Clock
	// Scale converts the tier's paper-time deadlines (acquireTimeout,
	// slowThreshold, health-check cadence) to wall time; zero or
	// negative means clock.RealTime.
	Scale clock.Timescale
	// Async selects asynchronous replication: Exec returns at primary
	// commit instead of waiting for every replica to apply. False — the
	// default — preserves the old synchronous external behavior.
	Async bool
}

// backend is one engine plus its bounded connection pool. The engine
// and pool are swappable (atomically, under the tier's closeMu) so a
// resync can replace a stale replica with a fresh snapshot clone while
// statements are in flight.
type backend struct {
	dbv   atomic.Pointer[sqldb.DB]
	connv atomic.Value // chan *sqldb.Conn

	state atomic.Int32 // stateActive / stateEjected / stateResync
	down  atomic.Bool  // fault injection: engine refuses statements
	delay atomic.Int64 // injected statement latency, paper ns
	fails atomic.Int32 // consecutive failures while active
}

func (b *backend) db() *sqldb.DB          { return b.dbv.Load() }
func (b *backend) pool() chan *sqldb.Conn { return b.connv.Load().(chan *sqldb.Conn) }

// replica is one read replica's replication state: the applier's
// dedicated connection and the commit timestamp applied so far.
type replica struct {
	b       *backend
	apply   *sqldb.Conn
	applied atomic.Int64

	// upCh parks the applier while the backend is down; closed and
	// replaced by RestartBackend to wake it.
	upMu sync.Mutex
	upCh chan struct{}
}

// Tier is a replicated database tier. Handlers reach it through Conn
// values (see Conn), which are safe for concurrent use.
type Tier struct {
	backends []*backend // [0] is the primary
	replicas []*replica // backends[1:]
	log      *sqldb.ReplLog
	clk      clock.Clock
	scale    clock.Timescale
	poolSize int
	async    bool
	lagBound int64 // maxLag; the staleness test lowers it

	next       atomic.Uint64 // round-robin read cursor
	done       chan struct{}
	applyWG    sync.WaitGroup
	stopHealth func() // ends the health check; nil without replicas
	closeOnce  sync.Once
	// closeMu orders release against Close and against resync engine
	// swaps: once closed is set no new connection can land in a pool
	// channel, and release's stale-engine check is atomic with the swap.
	closeMu sync.Mutex
	closed  bool

	// stateMu orders replica reintegration against sync-mode waiters:
	// the "caught up, back in rotation" flip and the "every active
	// replica applied my commit" check run under it, so a stale replica
	// can never enter the rotation between a writer's wait completing
	// and its reader's next statement. Only atomic loads/stores happen
	// under it.
	stateMu sync.Mutex

	// progCh broadcasts replica apply progress to CommitTS / lag
	// waiters: made when a waiter takes it, closed and cleared when any
	// replica next advances. Nil while no one waits, so an advance with
	// no waiter allocates nothing.
	progMu sync.Mutex
	progCh chan struct{}

	// leaked holds pool connections deliberately withheld by the leak
	// fault plan, so ReleaseLeaked / Close can return or close them.
	leakMu sync.Mutex
	leaked []*sqldb.Conn

	inUse      atomic.Int64
	waits      atomic.Int64
	waitTime   metrics.Histogram
	replayErrs atomic.Int64
	ejected    atomic.Int64
	resyncs    atomic.Int64
}

// New builds a tier over primary. Replicas beyond the first are cloned
// from the primary's current contents (schema, rows, auto-increment
// state), so build the tier after the database is populated. With more
// than one backend the tier enables the primary's replication log and
// starts one applier goroutine per replica plus a health-check loop;
// Close stops them and detaches the log.
func New(primary *sqldb.DB, opts Options) *Tier {
	if primary == nil {
		panic("dbtier: nil primary")
	}
	if opts.Conns <= 0 {
		panic("dbtier: non-positive connection pool size")
	}
	if opts.Replicas < 1 {
		opts.Replicas = 1
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	if opts.Scale <= 0 {
		opts.Scale = clock.RealTime
	}
	t := &Tier{
		clk:      opts.Clock,
		scale:    opts.Scale,
		poolSize: opts.Conns,
		async:    opts.Async,
		lagBound: maxLag,
		done:     make(chan struct{}),
	}
	if opts.Replicas > 1 {
		// Enable the log before cloning: every commit after a clone's
		// asOf timestamp is then guaranteed to be in the log.
		t.log = primary.EnableReplLog()
	}
	for i := 0; i < opts.Replicas; i++ {
		db := primary
		b := &backend{}
		if i > 0 {
			clone, asOf := primary.CloneSnapshot()
			r := &replica{b: b, apply: clone.Connect(), upCh: make(chan struct{})}
			r.applied.Store(asOf)
			t.replicas = append(t.replicas, r)
			db = clone
		}
		b.dbv.Store(db)
		pool := make(chan *sqldb.Conn, opts.Conns)
		for j := 0; j < opts.Conns; j++ {
			pool <- db.Connect()
		}
		b.connv.Store(pool)
		t.backends = append(t.backends, b)
	}
	for _, r := range t.replicas {
		t.applyWG.Add(1)
		go t.applyLoop(r)
	}
	if len(t.replicas) > 0 {
		// One paper-second cadence on the tier's injected clock, so
		// fault experiments replay deterministically under clock.Manual.
		t.stopHealth = clock.Every(t.clk, t.scale.Wall(healthInterval), func(time.Time) bool {
			for _, r := range t.replicas {
				t.checkHealth(r)
			}
			return true
		})
	}
	return t
}

// Conn returns a connection facade for handlers. Unlike a raw
// sqldb.Conn, a tier Conn is safe for concurrent use: every statement
// acquires a pooled backend connection for just its own execution.
func (t *Tier) Conn() *Conn { return &Conn{t: t} }

// Close shuts the tier down: waiting acquisitions fail, applier
// goroutines drain and stop, the primary's replication log is detached
// (so later direct writes no longer accumulate or replicate), and
// pooled connections are closed (connections currently executing are
// closed as they are released). Idempotent.
func (t *Tier) Close() {
	t.closeOnce.Do(func() {
		t.closeMu.Lock()
		t.closed = true
		close(t.done)
		t.closeMu.Unlock()
		if t.stopHealth != nil {
			t.stopHealth()
		}
		t.applyWG.Wait()
		for _, r := range t.replicas {
			r.apply.Close()
		}
		if t.log != nil {
			t.backends[0].db().DisableReplLog()
		}
		// No release can add to a pool once closed is set, so a single
		// drain closes every pooled connection for good.
		for _, b := range t.backends {
			pool := b.pool()
			for drained := false; !drained; {
				select {
				case c := <-pool:
					c.Close()
				default:
					drained = true
				}
			}
		}
		t.leakMu.Lock()
		leaked := t.leaked
		t.leaked = nil
		t.leakMu.Unlock()
		for _, c := range leaked {
			t.inUse.Add(-1)
			c.Close()
		}
	})
}

// applyLoop is one replica's applier: it tails the primary's log and
// replays each committed statement, in commit order, on the replica's
// dedicated connection. Replay preserves auto-increment determinism
// because the replica started from a commit-consistent clone and
// applies the identical statement stream single-threaded. While the
// backend is down the applier parks; on revival it catches up from the
// log, or from a fresh snapshot clone when the log has been truncated
// past its watermark.
func (t *Tier) applyLoop(r *replica) {
	defer t.applyWG.Done()
	for {
		select {
		case <-t.done:
			return
		default:
		}
		if r.b.down.Load() {
			if !r.waitUp(t.done) {
				return
			}
			continue
		}
		if t.log.Base() > r.applied.Load() {
			// The log no longer reaches back to this replica's
			// watermark (it was ejected long enough for truncation to
			// pass it): resync from a fresh snapshot of the primary.
			if !t.resyncClone(r) {
				return
			}
			t.maybeReintegrate(r)
			continue
		}
		entries, changed := t.log.Since(r.applied.Load())
		if len(entries) == 0 {
			t.maybeReintegrate(r)
			select {
			case <-t.done:
				return
			case <-changed:
			}
			continue
		}
		for _, e := range entries {
			select {
			case <-t.done:
				return
			default:
			}
			if r.b.down.Load() {
				break // died mid-batch; park at the top of the loop
			}
			args := make([]any, len(e.Args))
			for i, v := range e.Args {
				args[i] = v
			}
			if _, err := r.apply.Exec(e.SQL, args...); err != nil {
				t.replayErrs.Add(1)
			}
			r.applied.Store(e.TS)
			t.notifyProgress()
		}
		t.maybeReintegrate(r)
		t.log.TruncateThrough(t.truncWatermark())
	}
}

// waitUp parks the applier until the backend is restarted or the tier
// closes; false means closed.
func (r *replica) waitUp(done <-chan struct{}) bool {
	for r.b.down.Load() {
		r.upMu.Lock()
		ch := r.upCh
		r.upMu.Unlock()
		if !r.b.down.Load() {
			return true
		}
		select {
		case <-done:
			return false
		case <-ch:
		}
	}
	return true
}

// resyncClone swaps a stale replica's engine for a fresh snapshot clone
// of the primary, replacing its connection pool and applier connection;
// in-flight connections to the old engine are closed as they release.
// Returns false when the tier closed mid-swap.
func (t *Tier) resyncClone(r *replica) bool {
	clone, asOf := t.backends[0].db().CloneSnapshot()
	newPool := make(chan *sqldb.Conn, t.poolSize)
	for j := 0; j < t.poolSize; j++ {
		newPool <- clone.Connect()
	}
	t.closeMu.Lock()
	if t.closed {
		t.closeMu.Unlock()
		for drained := false; !drained; {
			select {
			case c := <-newPool:
				c.Close()
			default:
				drained = true
			}
		}
		return false
	}
	old := r.b.pool()
	r.b.dbv.Store(clone)
	r.b.connv.Store(newPool)
	for drained := false; !drained; {
		select {
		case c := <-old:
			c.Close()
		default:
			drained = true
		}
	}
	t.closeMu.Unlock()
	r.apply.Close()
	r.apply = clone.Connect()
	r.applied.Store(asOf)
	t.notifyProgress()
	return true
}

// checkHealth advances one replica's health state machine by one tick of
// the health check: it ejects a replica that is down or pathologically
// slow, moves a revived one to resync, and reintegrates a caught-up one.
func (t *Tier) checkHealth(r *replica) {
	b := r.b
	healthy := !b.down.Load() && time.Duration(b.delay.Load()) <= slowThreshold
	switch b.state.Load() {
	case stateActive:
		if healthy {
			b.fails.Store(0)
			return
		}
		if b.fails.Add(1) >= failThreshold {
			t.eject(b)
		}
	case stateEjected:
		if healthy {
			b.fails.Store(0)
			t.stateMu.Lock()
			if b.state.Load() == stateEjected {
				b.state.Store(stateResync)
			}
			t.stateMu.Unlock()
		}
	case stateResync:
		if !healthy {
			t.stateMu.Lock()
			if b.state.Load() == stateResync {
				b.state.Store(stateEjected)
			}
			t.stateMu.Unlock()
			return
		}
		t.maybeReintegrate(r)
	}
}

// eject removes a replica backend from the read rotation. Waiters are
// woken so sync-mode writers stop waiting on the dead replica.
func (t *Tier) eject(b *backend) {
	t.stateMu.Lock()
	if b.state.Load() != stateActive {
		t.stateMu.Unlock()
		return
	}
	b.state.Store(stateEjected)
	t.stateMu.Unlock()
	t.ejected.Add(1)
	t.notifyProgress()
}

// noteFailure records a statement failure against a backend; enough
// consecutive failures eject a replica without waiting for the next
// health tick. The primary is never ejected.
func (t *Tier) noteFailure(b *backend) {
	if b == t.backends[0] {
		return
	}
	if b.state.Load() != stateActive {
		return
	}
	if b.fails.Add(1) >= failThreshold {
		t.eject(b)
	}
}

// maybeReintegrate returns a resyncing replica to the read rotation
// once it has applied everything committed so far. The check and the
// state flip happen under stateMu — the same lock sync-mode waiters
// check under — so a write can never complete its replication wait
// while a replica that missed it is entering the rotation.
func (t *Tier) maybeReintegrate(r *replica) {
	b := r.b
	if b.state.Load() != stateResync {
		return
	}
	t.stateMu.Lock()
	if b.state.Load() == stateResync && r.applied.Load() >= t.backends[0].db().CommitTS() {
		b.state.Store(stateActive)
		b.fails.Store(0)
		t.stateMu.Unlock()
		t.resyncs.Add(1)
		t.notifyProgress()
		return
	}
	t.stateMu.Unlock()
}

// ---- fault injection surface ----

// KillBackend marks replica backend i (1-based index into Backends;
// the primary cannot be killed) as down: statements on it fail, its
// applier parks, and the health loop ejects it from the rotation.
func (t *Tier) KillBackend(i int) error {
	if i <= 0 || i >= len(t.backends) {
		return fmt.Errorf("dbtier: kill: no replica backend %d", i)
	}
	t.backends[i].down.Store(true)
	return nil
}

// RestartBackend revives a killed replica backend: its applier wakes
// and catches up (replaying the log, or resyncing from a snapshot
// clone when the log has been truncated past its watermark), and the
// replica reintegrates into the rotation once caught up.
func (t *Tier) RestartBackend(i int) error {
	if i <= 0 || i >= len(t.backends) {
		return fmt.Errorf("dbtier: restart: no replica backend %d", i)
	}
	t.backends[i].down.Store(false)
	r := t.replicas[i-1]
	r.upMu.Lock()
	close(r.upCh)
	r.upCh = make(chan struct{})
	r.upMu.Unlock()
	return nil
}

// SetBackendDelay injects d of added paper-time latency into every
// statement executed on backend i (0 is the primary). Delays beyond
// slowThreshold get a replica ejected from the rotation; zero clears
// the injection.
func (t *Tier) SetBackendDelay(i int, d time.Duration) error {
	if i < 0 || i >= len(t.backends) {
		return fmt.Errorf("dbtier: delay: no backend %d", i)
	}
	if d < 0 {
		d = 0
	}
	t.backends[i].delay.Store(int64(d))
	return nil
}

// LeakConns withholds up to n primary-pool connections without
// releasing them (n <= 0 means every currently idle one), simulating a
// connection leak. Returns how many were taken. Leaked connections
// count as in-use until ReleaseLeaked or Close.
func (t *Tier) LeakConns(n int) int {
	pool := t.backends[0].pool()
	t.leakMu.Lock()
	defer t.leakMu.Unlock()
	got := 0
	for n <= 0 || got < n {
		select {
		case c := <-pool:
			t.inUse.Add(1)
			t.leaked = append(t.leaked, c)
			got++
		default:
			return got
		}
	}
	return got
}

// ReleaseLeaked returns every leaked connection to the primary pool,
// reporting how many were released.
func (t *Tier) ReleaseLeaked() int {
	t.leakMu.Lock()
	leaked := t.leaked
	t.leaked = nil
	t.leakMu.Unlock()
	for _, c := range leaked {
		t.release(t.backends[0], c)
	}
	return len(leaked)
}

// ---- replication waits ----

// notifyProgress wakes everything blocked on replica apply progress.
func (t *Tier) notifyProgress() {
	t.progMu.Lock()
	if t.progCh != nil {
		close(t.progCh)
		t.progCh = nil
	}
	t.progMu.Unlock()
}

// progress returns the channel the next notifyProgress closes.
func (t *Tier) progress() <-chan struct{} {
	t.progMu.Lock()
	if t.progCh == nil {
		t.progCh = make(chan struct{})
	}
	ch := t.progCh
	t.progMu.Unlock()
	return ch
}

// minActiveAppliedLocked reports the slowest in-rotation replica's
// applied commit timestamp; with none in rotation, the primary's
// CommitTS (writers have nothing to wait for). Callers hold stateMu.
func (t *Tier) minActiveAppliedLocked() int64 {
	min := int64(-1)
	for _, r := range t.replicas {
		if r.b.state.Load() != stateActive {
			continue
		}
		if a := r.applied.Load(); min < 0 || a < min {
			min = a
		}
	}
	if min < 0 {
		return t.backends[0].db().CommitTS()
	}
	return min
}

// minActiveApplied is minActiveAppliedLocked under stateMu.
func (t *Tier) minActiveApplied() int64 {
	t.stateMu.Lock()
	m := t.minActiveAppliedLocked()
	t.stateMu.Unlock()
	return m
}

// truncWatermark reports the replication-log truncation point: the
// slowest non-ejected replica's applied timestamp. Ejected replicas
// are excluded — a dead replica must not pin the log forever; if
// truncation passes its watermark it resyncs from a snapshot clone on
// revival.
func (t *Tier) truncWatermark() int64 {
	min := int64(-1)
	for _, r := range t.replicas {
		if r.b.state.Load() == stateEjected {
			continue
		}
		if a := r.applied.Load(); min < 0 || a < min {
			min = a
		}
	}
	if min < 0 {
		return t.backends[0].db().CommitTS()
	}
	return min
}

// wait blocks while the slowest in-rotation replica trails ts by more
// than bound commits, or until the tier closes (the write already
// committed on the primary, so closing is not an error for the writer).
// A bound of 0 waits until every in-rotation replica has applied ts, as
// sync mode does; async mode passes maxLag, its bounded-staleness
// backpressure. Ejection wakes waiters, so a dead replica delays
// writers by at most the ejection threshold.
func (t *Tier) wait(ts, bound int64) {
	for ts-t.minActiveApplied() > bound {
		ch := t.progress()
		if ts-t.minActiveApplied() <= bound {
			return
		}
		select {
		case <-ch:
		case <-t.done:
			return
		}
	}
}

// Sync blocks until every in-rotation replica has applied every
// statement committed on the primary so far — the barrier tests and
// direct primary writers use to observe a converged tier.
func (t *Tier) Sync() {
	if len(t.replicas) == 0 {
		return
	}
	t.wait(t.backends[0].db().CommitTS(), 0)
}

// ---- connection pool ----

// acquire obtains a pooled connection to backend b, blocking until one
// frees up, the paper-time acquisition deadline passes, or the tier
// closes. Waits are counted and timed through the injected clock.
func (t *Tier) acquire(b *backend) (*sqldb.Conn, error) {
	select {
	case <-t.done:
		return nil, ErrTierClosed
	default:
	}
	pool := b.pool()
	// Fast path: no blocking.
	select {
	case c := <-pool:
		t.inUse.Add(1)
		return c, nil
	default:
	}
	t.waits.Add(1)
	start := t.clk.Now()
	timeout := t.clk.After(t.scale.Wall(acquireTimeout))
	select {
	case c := <-pool:
		t.waitTime.Observe(t.clk.Since(start))
		t.inUse.Add(1)
		return c, nil
	case <-timeout:
		t.waitTime.Observe(t.clk.Since(start))
		return nil, ErrAcquireTimeout
	case <-t.done:
		return nil, ErrTierClosed
	}
}

// release returns a pooled connection; after Close, or when the
// backend's engine was swapped by a resync while the statement ran, the
// connection is closed instead.
func (t *Tier) release(b *backend, c *sqldb.Conn) {
	t.inUse.Add(-1)
	t.closeMu.Lock()
	if t.closed {
		t.closeMu.Unlock()
		c.Close()
		return
	}
	if c.DB() != b.db() {
		t.closeMu.Unlock()
		c.Close()
		return
	}
	select {
	case b.pool() <- c:
		t.closeMu.Unlock()
	default:
		t.closeMu.Unlock()
		panic("dbtier: released more connections than acquired")
	}
}

// queryOn executes one SELECT on backend b, applying any injected
// latency and failing fast when the backend is down.
func (t *Tier) queryOn(b *backend, sql string, args ...any) (*sqldb.ResultSet, error) {
	if b.down.Load() {
		return nil, ErrBackendDown
	}
	bc, err := t.acquire(b)
	if err != nil {
		return nil, err
	}
	defer t.release(b, bc)
	if d := b.delay.Load(); d > 0 {
		t.clk.Sleep(t.scale.Wall(time.Duration(d)))
	}
	if b.down.Load() {
		return nil, ErrBackendDown // died while we held the connection
	}
	return bc.Query(sql, args...)
}

// ---- introspection ----

// Replicas reports the number of backend engines, primary included.
func (t *Tier) Replicas() int { return len(t.backends) }

// Backends lists every engine, primary first. Resyncs swap replica
// engines, so the slice reflects the tier at the time of the call.
func (t *Tier) Backends() []*sqldb.DB {
	out := make([]*sqldb.DB, len(t.backends))
	for i, b := range t.backends {
		out[i] = b.db()
	}
	return out
}

// InUse reports how many pooled connections are currently executing,
// across all backends.
func (t *Tier) InUse() int { return int(t.inUse.Load()) }

// WaitCount reports how many acquisitions had to block.
func (t *Tier) WaitCount() int64 { return t.waits.Load() }

// WaitTimes exposes the acquisition wait-time histogram (measured
// through the tier's clock).
func (t *Tier) WaitTimes() *metrics.Histogram { return &t.waitTime }

// Sum adds one engine counter over every backend, replayed writes
// counting once per backend that applied them:
// t.Sum((*sqldb.DB).PlanScans) is the tier's full-scan count.
func (t *Tier) Sum(counter func(*sqldb.DB) int64) int64 {
	var n int64
	for _, b := range t.backends {
		n += counter(b.db())
	}
	return n
}

// ReplLag reports how many commits the slowest in-rotation replica
// currently trails the primary — zero with no replicas, bounded by
// maxLag under async backpressure, and transiently nonzero even in
// sync mode (the wait happens in Exec, not under a lock).
func (t *Tier) ReplLag() int64 {
	if len(t.replicas) == 0 {
		return 0
	}
	lag := t.backends[0].db().CommitTS() - t.minActiveApplied()
	if lag < 0 {
		return 0
	}
	return lag
}

// ReplayErrors reports replica statements that failed to apply — zero in
// a healthy tier, since replicas replay the primary's exact statement
// stream from an identical starting state.
func (t *Tier) ReplayErrors() int64 { return t.replayErrs.Load() }

// Ejected reports replicas ejected from the read rotation so far
// (cumulative; an eject/reintegrate/eject cycle counts twice).
func (t *Tier) Ejected() int64 { return t.ejected.Load() }

// Resyncs reports replicas reintegrated into the read rotation after
// catching up (by log replay or snapshot resync).
func (t *Tier) Resyncs() int64 { return t.resyncs.Load() }

// Conn is the handler-facing connection facade: the same Query/Exec
// shape as a *sqldb.Conn, with reads routed round-robin across backends
// and writes executed on the primary and shipped through the
// replication log.
type Conn struct {
	t *Tier
}

// Query executes a SELECT on the next backend in the read rotation,
// failing over past ejected, dead, and pool-starved backends: a read
// only fails once every backend has been tried.
func (c *Conn) Query(sql string, args ...any) (*sqldb.ResultSet, error) {
	t := c.t
	n := uint64(len(t.backends))
	cursor := t.next.Add(1)
	var lastErr error
	for k := uint64(0); k < n; k++ {
		idx := int((cursor + k) % n)
		b := t.backends[idx]
		if idx != 0 && b.state.Load() != stateActive {
			continue
		}
		res, err := t.queryOn(b, sql, args...)
		if err == nil {
			b.fails.Store(0)
			return res, nil
		}
		if errors.Is(err, ErrBackendDown) || errors.Is(err, ErrAcquireTimeout) {
			t.noteFailure(b)
			lastErr = err
			continue
		}
		return nil, err // genuine statement error: do not mask it
	}
	if lastErr == nil {
		lastErr = ErrBackendDown
	}
	return nil, lastErr
}

// Exec executes a DML statement on the primary. In sync mode it then
// waits (holding no pooled connection) until every in-rotation replica
// has applied the statement; in async mode it returns immediately
// unless the slowest in-rotation replica is more than maxLag commits
// behind.
func (c *Conn) Exec(sql string, args ...any) (sqldb.ExecResult, error) {
	b := c.t.backends[0]
	bc, err := c.t.acquire(b)
	if err != nil {
		return sqldb.ExecResult{}, err
	}
	if d := b.delay.Load(); d > 0 {
		c.t.clk.Sleep(c.t.scale.Wall(time.Duration(d)))
	}
	res, err := bc.Exec(sql, args...)
	c.t.release(b, bc) // before any replication wait: don't hold the pool slot
	if err != nil || len(c.t.replicas) == 0 {
		return res, err
	}
	bound := int64(0)
	if c.t.async {
		bound = c.t.lagBound
	}
	c.t.wait(res.CommitTS, bound)
	return res, nil
}
