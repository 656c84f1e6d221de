package sqldb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"stagedweb/internal/clock"
)

// Options configures a DB.
type Options struct {
	// Clock supplies time; defaults to the real clock.
	Clock clock.Clock
	// Timescale converts the CostModel's paper-time charges to wall
	// sleeps; defaults to real time (no compression).
	Timescale clock.Timescale
	// Cost is the latency model. nil means DefaultCostModel — unset and
	// "explicitly zero" are distinguishable, so tests that want free
	// statements must say so with ZeroCostModel (or &CostModel{}).
	Cost *CostModel
}

// DB is the embedded database engine. It is safe for concurrent use by
// any number of connections.
type DB struct {
	mu     sync.RWMutex // guards tables map (DDL)
	tables map[string]*table

	stmts *stmtCache

	clk  clock.Clock
	ts   clock.Timescale
	cost CostModel

	// mvcc selects the concurrency discipline: off = per-table RW lock
	// (the paper's MySQL-like behavior), on = snapshot reads +
	// first-writer-wins commits. Storage is versioned either way, so the
	// flag can be flipped between statements.
	mvcc atomic.Bool

	// commitMu is the engine-wide commit critical section: conflict
	// validation, version install, log append, and the commitTS bump
	// happen under it — and nothing else. Cost-model sleeps never hold
	// it.
	commitMu sync.Mutex
	commitTS atomic.Int64

	// log, when non-nil, receives every committed DML statement.
	log atomic.Pointer[ReplLog]

	// snapCount tracks pinned snapshot timestamps (active MVCC
	// statements and explicit Snapshots) so version pruning never cuts a
	// chain an active reader is walking.
	snapMu    sync.Mutex
	snapCount map[int64]int

	// idxEpoch counts index-availability changes (CreateIndex). Cached
	// plans carry the epoch they were built under; a bump invalidates
	// them, so a statement never executes a stale full-scan plan after
	// an index appears (or a stale index plan after one is replaced).
	idxEpoch atomic.Int64

	queries       atomic.Int64 // statements executed
	conflicts     atomic.Int64 // first-writer-wins aborts (before retry)
	snapshotReads atomic.Int64 // statements served from an MVCC snapshot
	planScans     atomic.Int64 // full-scan access paths executed
	planIndex     atomic.Int64 // index access paths executed
	planRows      atomic.Int64 // row versions visited by access paths
	open          atomic.Int64 // connections currently open (gauge)
}

// Open creates an empty database.
func Open(opts Options) *DB {
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	if opts.Timescale == 0 {
		opts.Timescale = clock.RealTime
	}
	if opts.Cost == nil {
		m := DefaultCostModel()
		opts.Cost = &m
	}
	return &DB{
		tables:    make(map[string]*table, 16),
		stmts:     newStmtCache(),
		clk:       opts.Clock,
		ts:        opts.Timescale,
		cost:      *opts.Cost,
		snapCount: make(map[int64]int),
	}
}

// SetMVCC selects the concurrency discipline: off (the default) is the
// paper-faithful per-table reader/writer lock. Safe to call on a live
// database; statements already in flight finish under the discipline
// they started with.
func (db *DB) SetMVCC(on bool) { db.mvcc.Store(on) }

// CommitTS reports the newest commit timestamp: the count of committed
// DML statements over the database's lifetime.
func (db *DB) CommitTS() int64 { return db.commitTS.Load() }

// Conflicts reports first-writer-wins validation failures. Each failed
// attempt counts once; Conn.Exec retries transparently, so a nonzero
// count with no surfaced errors means retries absorbed the conflicts.
func (db *DB) Conflicts() int64 { return db.conflicts.Load() }

// SnapshotReads reports statements served from an MVCC snapshot
// (snapshot SELECTs plus explicit Snapshot queries).
func (db *DB) SnapshotReads() int64 { return db.snapshotReads.Load() }

// PlanScans reports executed full-scan access paths: statements the
// planner could not serve from an index.
func (db *DB) PlanScans() int64 { return db.planScans.Load() }

// PlanIndexLookups reports executed index access paths — point lookups,
// range scans, and primary-key join steps (once per execution that
// reaches the step).
func (db *DB) PlanIndexLookups() int64 { return db.planIndex.Load() }

// PlanRowsRead reports row versions visited by access paths (scanned
// slots plus index-probed rows) — the planner's honest I/O volume.
func (db *DB) PlanRowsRead() int64 { return db.planRows.Load() }

// StmtCacheHits reports prepared-statement cache hits.
func (db *DB) StmtCacheHits() int64 { return db.stmts.hits.Load() }

// StmtCacheMisses reports prepared-statement cache misses.
func (db *DB) StmtCacheMisses() int64 { return db.stmts.misses.Load() }

// EnableReplLog attaches (or returns the existing) replication log.
// Entries start at the current commit timestamp, so a replica cloned
// via CloneSnapshot right after enabling observes a gapless stream.
func (db *DB) EnableReplLog() *ReplLog {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if l := db.log.Load(); l != nil {
		return l
	}
	l := newReplLog(db.commitTS.Load())
	db.log.Store(l)
	return l
}

// DisableReplLog detaches the replication log; later commits are no
// longer appended.
func (db *DB) DisableReplLog() {
	db.commitMu.Lock()
	db.log.Store(nil)
	db.commitMu.Unlock()
}

// ReplLog returns the attached replication log, or nil.
func (db *DB) ReplLog() *ReplLog { return db.log.Load() }

// finishCommit completes a DML commit: append to the replication log and
// publish the new commit timestamp. Caller holds commitMu and has
// already installed the statement's versions at ts.
func (db *DB) finishCommit(ec *execCtx, ts int64) {
	if l := db.log.Load(); l != nil {
		l.append(LogEntry{TS: ts, SQL: ec.sql, Args: ec.args})
	}
	db.commitTS.Store(ts)
}

// pinCurrent registers an active reader at the current commit timestamp
// and returns it. The timestamp is read and pinned in one snapMu
// critical section, and pruneHorizon reads commitTS under the same lock:
// loading commitTS first and pinning afterwards would let a commit in
// between compute a horizon above the still-unpinned timestamp and cut
// the very version the reader needs.
func (db *DB) pinCurrent() int64 {
	db.snapMu.Lock()
	ts := db.commitTS.Load()
	db.snapCount[ts]++
	db.snapMu.Unlock()
	return ts
}

// pinSnapshot registers an active reader at an explicit ts, holding
// version pruning at or below it. Versions already pruned below ts stay
// gone (see Snapshot).
func (db *DB) pinSnapshot(ts int64) {
	db.snapMu.Lock()
	db.snapCount[ts]++
	db.snapMu.Unlock()
}

// unpinSnapshot releases a pinSnapshot registration.
func (db *DB) unpinSnapshot(ts int64) {
	db.snapMu.Lock()
	if n := db.snapCount[ts] - 1; n > 0 {
		db.snapCount[ts] = n
	} else {
		delete(db.snapCount, ts)
	}
	db.snapMu.Unlock()
}

// pruneHorizon computes the oldest snapshot any active or future reader
// can hold: the minimum pinned timestamp, or the current commit
// timestamp when nothing is pinned. Versions strictly older than the
// newest version at or below the horizon are unreachable.
func (db *DB) pruneHorizon() int64 {
	db.snapMu.Lock()
	min := db.commitTS.Load()
	for ts := range db.snapCount {
		if ts < min {
			min = ts
		}
	}
	db.snapMu.Unlock()
	return min
}

// CreateTable registers a new table.
func (db *DB) CreateTable(s Schema) error {
	if err := s.validate(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[s.Table]; dup {
		return fmt.Errorf("sqldb: table %q already exists", s.Table)
	}
	db.tables[s.Table] = newTable(s)
	return nil
}

// CreateIndex builds a secondary index on a live table from the rows
// visible at the latest commit timestamp and installs it atomically
// with respect to commits. ordered selects the index type: an ordered
// index serves equality, ranges, and ORDER BY; a hash index serves
// equality only. Indexing a column that already carries the other index
// type replaces it. Statements planned before the install keep running
// correctly (index entries are stale-tolerant hints either way); the
// index epoch bump makes every later execution replan.
func (db *DB) CreateIndex(table, col string, ordered bool) error {
	tbl, err := db.lookupTable(table)
	if err != nil {
		return err
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if err := tbl.buildIndex(col, ordered); err != nil {
		return err
	}
	db.idxEpoch.Add(1)
	return nil
}

// MustCreateTable is CreateTable, panicking on error; for test schemas
// whose correctness is static.
func (db *DB) MustCreateTable(s Schema) {
	if err := db.CreateTable(s); err != nil {
		panic(err)
	}
}

// TableSize reports the number of live rows in a table.
func (db *DB) TableSize(name string) (int, error) {
	tbl, err := db.lookupTable(name)
	if err != nil {
		return 0, err
	}
	return int(tbl.live.Load()), nil
}

// QueryCount reports the number of statements executed.
func (db *DB) QueryCount() int64 { return db.queries.Load() }

func (db *DB) lookupTable(name string) (*table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	tbl, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("sqldb: unknown table %q", name)
	}
	return tbl, nil
}

// prepare parses and plans SQL through the per-DB bounded statement
// cache. Cached entries are keyed by the index epoch they were planned
// under: a CreateIndex bumps the epoch, so the next execution of a
// cached statement replans instead of running a stale access path.
// Planning compiles everything argument-independent (see selectPlan and
// dmlPlan), so a cache hit goes straight to execution.
func (db *DB) prepare(sql string) (stmt, error) {
	epoch := db.idxEpoch.Load()
	if s, ok := db.stmts.get(sql, epoch); ok {
		return s, nil
	}
	s, err := parseSQL(sql)
	if err != nil {
		return nil, err
	}
	switch t := s.(type) {
	case *selectStmt:
		if t.plan, err = db.planSelect(t); err != nil {
			return nil, err
		}
	case *explainStmt:
		if t.Sel.plan, err = db.planSelect(t.Sel); err != nil {
			return nil, err
		}
	case *updateStmt:
		if t.plan, err = db.planDML(t.Table, t.Where, t.Cols, t.Vals); err != nil {
			return nil, err
		}
	case *deleteStmt:
		if t.plan, err = db.planDML(t.Table, t.Where, nil, nil); err != nil {
			return nil, err
		}
	}
	db.stmts.put(sql, s, epoch)
	return s, nil
}

// chargeCost sleeps the statement's modeled latency (converted through
// the timescale). In lock mode it is called while the statement's table
// locks are held, so concurrent statements contend the way the paper's
// MySQL server does; in MVCC mode it is called with no locks held — the
// latency is still charged, but nobody queues behind it.
func (db *DB) chargeCost(ec *execCtx) {
	if ec.load {
		return
	}
	d := ec.cost.total(db.cost)
	if d > 0 {
		db.clk.Sleep(db.ts.Wall(d))
	}
}

// ErrConnClosed reports use of a closed connection.
var ErrConnClosed = errors.New("sqldb: connection closed")

// ErrConnBusy reports concurrent use of one connection.
var ErrConnBusy = errors.New("sqldb: connection used concurrently")

// ErrWriteConflict reports a first-writer-wins validation failure: a
// row the statement read under its snapshot was committed to by another
// writer before this statement could commit. Conn.Exec retries
// conflicted statements transparently; the error only surfaces after
// the retry budget is exhausted.
var ErrWriteConflict = errors.New("sqldb: write conflict")

// maxConflictRetries bounds transparent re-execution of a conflicted
// DML statement. Each retry re-reads a fresh snapshot, and a conflict
// implies some other writer committed, so the system as a whole always
// makes progress; the bound is a backstop, not a tuning knob.
const maxConflictRetries = 64

// Conn is a database connection. Like the paper's per-thread MySQL
// connections it executes one statement at a time; concurrent use is a
// bug in the caller and reported as ErrConnBusy.
type Conn struct {
	db     *DB
	mu     sync.Mutex
	busy   bool
	closed bool
	load   bool // a Loader connection: statements charge no paper time

	// The state of the SELECT in flight; busy guards it. memo outlives the
	// statement (it references nothing), so that a coded SELECT on a
	// reused connection allocates none.
	ec      execCtx
	scratch selectScratch
	memo    codeMemo
}

// Connect opens a new connection.
func (db *DB) Connect() *Conn {
	db.open.Add(1)
	return &Conn{db: db}
}

// Loader opens a connection whose statements skip the cost model: they
// count their work, commit, and reach the replication log as on any
// connection, and sleep none of it. It is the way to fill a database
// before it serves, so that set-up takes the time the engine takes and
// no paper time.
func (db *DB) Loader() *Conn {
	c := db.Connect()
	c.load = true
	return c
}

// OpenConns reports connections opened and not yet closed — the gauge
// shutdown tests use to prove servers release their connection budget.
func (db *DB) OpenConns() int64 { return db.open.Load() }

// DB reports the engine this connection belongs to. Pool owners use it
// to detect connections stranded from a backend whose engine has been
// swapped out (for example by a snapshot resync) and close them instead
// of pooling them.
func (c *Conn) DB() *DB { return c.db }

func (c *Conn) enter() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrConnClosed
	}
	if c.busy {
		return ErrConnBusy
	}
	c.busy = true
	return nil
}

func (c *Conn) exit() {
	c.mu.Lock()
	c.busy = false
	c.mu.Unlock()
}

// Close closes the connection. Idempotent.
func (c *Conn) Close() {
	c.mu.Lock()
	wasOpen := !c.closed
	c.closed = true
	c.mu.Unlock()
	if wasOpen {
		c.db.open.Add(-1)
	}
}

// Query executes a SELECT and returns the materialized result.
func (c *Conn) Query(sql string, args ...any) (*ResultSet, error) {
	if err := c.enter(); err != nil {
		return nil, err
	}
	defer c.exit()
	c.db.queries.Add(1)

	s, err := c.db.prepare(sql)
	if err != nil {
		return nil, err
	}
	switch t := s.(type) {
	case *selectStmt:
		defer func() { c.ec, c.scratch = execCtx{}, selectScratch{} }()
		c.ec.scratch, c.ec.memo, c.ec.load = &c.scratch, &c.memo, c.load
		if err := c.ec.bind(args); err != nil {
			return nil, err
		}
		return c.db.execSelect(t, &c.ec)
	case *explainStmt:
		return t.Sel.plan.resultSet(), nil
	default:
		return nil, fmt.Errorf("sqldb: Query requires SELECT, got %q", sql)
	}
}

// ExecResult reports the effect of a DML statement.
type ExecResult struct {
	RowsAffected int64
	LastInsertID int64
	// CommitTS is the commit timestamp the statement was installed at.
	// The replication tier waits on it ("replica applied >= CommitTS")
	// instead of replicating inside the write path.
	CommitTS int64
}

// Exec executes an INSERT, UPDATE, or DELETE. Under MVCC, a statement
// aborted by first-writer-wins validation is re-executed against a
// fresh snapshot (the accumulated cost of failed attempts stays
// charged, so conflicts cost latency, as they should).
func (c *Conn) Exec(sql string, args ...any) (ExecResult, error) {
	if err := c.enter(); err != nil {
		return ExecResult{}, err
	}
	defer c.exit()
	c.db.queries.Add(1)

	s, err := c.db.prepare(sql)
	if err != nil {
		return ExecResult{}, err
	}
	ec, err := newExecCtx(args)
	if err != nil {
		return ExecResult{}, err
	}
	ec.sql, ec.load = sql, c.load
	for attempt := 0; ; attempt++ {
		var res ExecResult
		switch t := s.(type) {
		case *insertStmt:
			res, err = c.db.execInsert(t, ec)
		case *updateStmt:
			res, err = c.db.execWrite(t.plan, t.Cols, ec)
		case *deleteStmt:
			res, err = c.db.execWrite(t.plan, nil, ec)
		default:
			return ExecResult{}, fmt.Errorf("sqldb: Exec requires INSERT/UPDATE/DELETE, got %q", sql)
		}
		if errors.Is(err, ErrWriteConflict) && attempt < maxConflictRetries {
			continue
		}
		return res, err
	}
}

// newExecCtx is the context of a statement that cannot use a
// connection's: a SELECT off one, and every DML statement, whose
// arguments go into the replication log.
func newExecCtx(args []any) (*execCtx, error) {
	ec := &execCtx{}
	return ec, ec.bind(args)
}

// bind normalizes a statement's arguments into a zero context.
func (ec *execCtx) bind(args []any) error {
	if len(args) <= len(ec.argBuf) {
		ec.args = ec.argBuf[:len(args)]
	} else {
		ec.args = make([]Value, len(args))
	}
	for i, a := range args {
		v, err := normalize(a)
		if err != nil {
			return fmt.Errorf("sqldb: argument %d: %w", i+1, err)
		}
		ec.args[i] = v
	}
	return nil
}

// ResultSet is a fully materialized query result. Columns is shared
// with the cached statement's plan and with every other result of the
// same statement: read it, do not modify it. Rows belong to the caller,
// cells and all; each row is capped at its length, so appending a cell
// to one (as tpcw's cart subtotal does) copies it.
type ResultSet struct {
	Columns []string
	Rows    [][]Value

	one [1][]Value // backs Rows of a one-row result
}

// header returns a Rows of n rows: the result's own when one is enough.
func (rs *ResultSet) header(n int) [][]Value {
	if n <= len(rs.one) {
		return rs.one[:n]
	}
	return make([][]Value, n)
}

// Len reports the number of rows.
func (rs *ResultSet) Len() int { return len(rs.Rows) }

// ColIndex returns the position of a column name, or -1.
func (rs *ResultSet) ColIndex(name string) int {
	for i, c := range rs.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// Get returns the value at (row, column name); nil if out of range.
func (rs *ResultSet) Get(row int, name string) Value {
	ci := rs.ColIndex(name)
	if ci < 0 || row < 0 || row >= len(rs.Rows) {
		return nil
	}
	return rs.Rows[row][ci]
}

// Int returns an int64 cell (0 when NULL or mistyped).
func (rs *ResultSet) Int(row int, name string) int64 {
	switch v := rs.Get(row, name).(type) {
	case int64:
		return v
	case float64:
		return int64(v)
	default:
		return 0
	}
}

// Float returns a float64 cell (0 when NULL or mistyped).
func (rs *ResultSet) Float(row int, name string) float64 {
	switch v := rs.Get(row, name).(type) {
	case float64:
		return v
	case int64:
		return float64(v)
	default:
		return 0
	}
}

// Str returns a string cell ("" when NULL or mistyped).
func (rs *ResultSet) Str(row int, name string) string {
	if v, ok := rs.Get(row, name).(string); ok {
		return v
	}
	return ""
}

// Cell is Get as a plain any. Len and Cell are the row-set shape
// internal/template walks in place, so a result goes on a page as it is,
// without a map per row.
func (rs *ResultSet) Cell(row int, column string) any { return rs.Get(row, column) }
