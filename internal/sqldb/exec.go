package sqldb

import (
	"fmt"
	"slices"
	"strings"
)

// binding is one table participating in a statement (FROM or JOIN).
// Bindings are resolved once, at prepare time; the snapshot a statement
// reads each table at is a tableView taken per execution.
type binding struct {
	tbl *table
}

// execCtx carries per-statement state.
type execCtx struct {
	args []Value
	cost costCounter
	// planRows counts the row versions this execution's access paths have
	// visited and flushPlanRows has not yet added to db.planRows: the
	// per-row path bumps a field of its own, never a shared cache line.
	planRows int64
	// sql is the original statement text, kept for the replication log.
	sql string
	// argBuf backs args for the usual short argument list, so the context
	// and its arguments are one allocation.
	argBuf [4]Value
	// like is the LIKE pattern this execution last matched against.
	like likePattern
	// scratch is what a SELECT runs on: the connection's, or one
	// runSelect allocates for a statement off a connection.
	scratch *selectScratch
	// memo is the SELECT's codeMemo, likewise; runSelect readies it for a
	// plan with coded conjuncts and leaves it alone otherwise.
	memo *codeMemo
	// load marks a statement of a Loader connection, which chargeCost
	// leaves unslept.
	load bool
}

// chargeProbe counts one primary-key probe.
func (ec *execCtx) chargeProbe() {
	ec.cost.probes++
	ec.planRows++
}

// resolveBindings maps the FROM/JOIN clauses onto tables. A table
// appears once: without aliases, a second binding of it could not be
// told apart.
func (db *DB) resolveBindings(s *selectStmt) ([]binding, error) {
	bindings := make([]binding, 0, 1+len(s.Joins))
	for i := range 1 + len(s.Joins) {
		name := s.From
		if i > 0 {
			name = s.Joins[i-1].Table
		}
		tbl, err := db.lookupTable(name)
		if err != nil {
			return nil, err
		}
		if slices.ContainsFunc(bindings, func(b binding) bool { return b.tbl == tbl }) {
			return nil, fmt.Errorf("sqldb: table %q appears twice", name)
		}
		bindings = append(bindings, binding{tbl: tbl})
	}
	return bindings, nil
}

// lockSet lists the distinct tables among the bindings in name order: a
// canonical order prevents deadlock between concurrent multi-table
// statements.
func lockSet(bindings []binding) []*table {
	var set []*table
	for _, b := range bindings {
		if !slices.Contains(set, b.tbl) {
			set = append(set, b.tbl)
		}
	}
	slices.SortFunc(set, func(a, b *table) int { return strings.Compare(a.schema.Table, b.schema.Table) })
	return set
}

// resolveCol locates a column among the bindings.
func resolveCol(bindings []binding, name string) (bindIdx, colIdx int, err error) {
	found := -1
	for bi, b := range bindings {
		if ci := b.tbl.schema.colIndex(name); ci >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("sqldb: ambiguous column %q", name)
			}
			found = bi
			colIdx = ci
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("sqldb: unknown column %q", name)
	}
	return found, colIdx, nil
}

// ---- DML ----
//
// Every DML statement is split into a read phase and a commit. The read
// phase runs against a snapshot view (the statement's write set: which
// slots to touch and the fully-built replacement rows); the commit
// validates and installs versions under db.commitMu — a critical
// section that covers only validation, version install, log append, and
// the timestamp bump, never cost-model sleeps.
//
// In lock mode the statement additionally holds the table's write lock
// around both phases (and charges cost under it), reproducing the
// paper's serialized writer. Under MVCC the table lock is not taken:
// validation is first-writer-wins — if any slot in the write set gained
// a version newer than the statement's snapshot, the statement aborts
// with ErrWriteConflict and Conn.Exec retries it on a fresh snapshot.

// rowWrite is one row of a statement's write set: the slot to replace
// and its fully-built next version.
type rowWrite struct {
	id  int
	row []Value
}

func (db *DB) execInsert(s *insertStmt, ec *execCtx) (ExecResult, error) {
	tbl, err := db.lookupTable(s.Table)
	if err != nil {
		return ExecResult{}, err
	}
	row := make([]Value, len(tbl.schema.Columns))
	for i, col := range s.Cols {
		ci := tbl.schema.colIndex(col)
		if ci < 0 {
			return ExecResult{}, fmt.Errorf("sqldb: table %q has no column %q", s.Table, col)
		}
		v, err := s.Values[i].value(ec)
		if err != nil {
			return ExecResult{}, err
		}
		nv, err := normalize(v)
		if err != nil {
			return ExecResult{}, err
		}
		if !tbl.schema.Columns[ci].Type.accepts(nv) {
			return ExecResult{}, fmt.Errorf("sqldb: column %s.%s (%s) rejects %T",
				s.Table, col, tbl.schema.Columns[ci].Type, nv)
		}
		row[ci] = nv
	}
	if db.mvcc.Load() {
		res, err := db.commitInsert(tbl, row, ec)
		if err != nil {
			return ExecResult{}, err
		}
		db.chargeCost(ec) // outside every lock
		return res, nil
	}
	tbl.lock.Lock()
	defer tbl.lock.Unlock()
	// Lock engine only: sleeping the statement's cost under the table
	// lock IS the paper's baseline contention model. The MVCC paths
	// above charge outside every lock, and locksleep keeps them that way.
	defer db.chargeCost(ec)
	return db.commitInsert(tbl, row, ec)
}

// commitInsert validates and installs one insert. Inserts have no read
// set, so there is nothing to conflict on — duplicate-key errors are
// real errors, not retryable conflicts.
func (db *DB) commitInsert(tbl *table, row []Value, ec *execCtx) (ExecResult, error) {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if err := tbl.checkInsert(row); err != nil {
		return ExecResult{}, err
	}
	ts := db.commitTS.Load() + 1
	tbl.applyInsert(row, ts)
	ec.cost.written++
	res := ExecResult{RowsAffected: 1, CommitTS: ts}
	if tbl.pkCol >= 0 {
		if id, ok := row[tbl.pkCol].(int64); ok {
			res.LastInsertID = id
		}
	}
	db.finishCommit(ec, ts)
	return res, nil
}

// dmlPlan is what a cached UPDATE or DELETE carries from prepare time:
// the table, the WHERE clause compiled to closures, the access path the
// rule gives it (pathFor), and (UPDATE) the SET columns and their values.
type dmlPlan struct {
	tbl     *table
	path    accessPath
	preds   []compiledPred
	setCols []int
	setVals []operand
}

// planDML compiles the read phase of an UPDATE (cols/vals set) or
// DELETE (both nil) on one table.
func (db *DB) planDML(table string, where []pred, cols []string, vals []operand) (*dmlPlan, error) {
	tbl, err := db.lookupTable(table)
	if err != nil {
		return nil, err
	}
	bindings := []binding{{tbl: tbl}}
	preds, err := compileWhere(where, bindings, nil)
	if err != nil {
		return nil, err
	}
	p := &dmlPlan{tbl: tbl, path: pathFor(where, bindings), preds: preds[0], setVals: vals}
	for _, col := range cols {
		ci := tbl.schema.colIndex(col)
		if ci < 0 {
			return nil, fmt.Errorf("sqldb: table %q has no column %q", table, col)
		}
		p.setCols = append(p.setCols, ci)
	}
	return p, nil
}

// dmlRun is one execution of a DML read phase: it visits the access
// path's candidate rows, re-checks the WHERE against each visible row,
// and collects the statement's write set.
type dmlRun struct {
	plan    *dmlPlan
	set     []string // UPDATE column names, for diagnostics; nil for DELETE
	ec      *execCtx
	rows    [1][]Value
	probes  []int // scratch for ordered-index equality probes
	updates []rowWrite
	deletes []int
}

// readPhase runs the statement's read phase against view.
func (db *DB) readPhase(p *dmlPlan, set []string, view tableView, ec *execCtx) (*dmlRun, error) {
	r := &dmlRun{plan: p, set: set, ec: ec}
	err := db.drive(p.path, view, ec, &r.probes, nil, r)
	db.flushPlanRows(ec)
	return r, err
}

// flushPlanRows adds the rows an execution visited to PlanRowsRead. Every
// access path runs inside runSelect's enumeration or a DML read phase,
// and both call this once on the way out, whether the pass finished or
// failed and before any cost sleep or commit — so the total is in
// db.planRows by the time the statement (or an attempt that ends in a
// write conflict) returns.
func (db *DB) flushPlanRows(ec *execCtx) {
	db.planRows.Add(ec.planRows)
	ec.planRows = 0
}

func (r *dmlRun) visit(id int, rv *rowVersion) error {
	row := rv.data()
	r.rows[0] = row
	if ok, err := allHold(r.plan.preds, r.rows[:], rv, r.ec); err != nil || !ok {
		return err
	}
	if r.set == nil {
		r.deletes = append(r.deletes, id)
		return nil
	}
	// Build the full replacement row from the snapshot row and the SET
	// values.
	tbl := r.plan.tbl
	newRow := append([]Value(nil), row...)
	for i, op := range r.plan.setVals {
		v, err := op.value(r.ec)
		if err != nil {
			return err
		}
		nv, err := normalize(v)
		if err != nil {
			return err
		}
		col := tbl.schema.Columns[r.plan.setCols[i]]
		if !col.Type.accepts(nv) {
			return fmt.Errorf("sqldb: column %s.%s (%s) rejects %T", tbl.schema.Table, r.set[i], col.Type, nv)
		}
		newRow[r.plan.setCols[i]] = nv
	}
	r.updates = append(r.updates, rowWrite{id: id, row: newRow})
	return nil
}

// execWrite runs an UPDATE (set names the SET columns) or DELETE (nil):
// read phase against a snapshot view, then one atomic commit.
func (db *DB) execWrite(p *dmlPlan, set []string, ec *execCtx) (ExecResult, error) {
	tbl := p.tbl
	if db.mvcc.Load() {
		snapTS := db.pinCurrent()
		defer db.unpinSnapshot(snapTS)
		r, err := db.readPhase(p, set, tbl.view(snapTS), ec)
		if err != nil {
			return ExecResult{}, err
		}
		res, err := db.commitWrites(tbl, snapTS, r.updates, r.deletes, ec, true)
		if err != nil {
			return ExecResult{}, err
		}
		db.chargeCost(ec) // outside every lock
		return res, nil
	}
	tbl.lock.Lock()
	defer tbl.lock.Unlock()
	// Lock engine only: sleeping the statement's cost under the table
	// lock IS the paper's baseline contention model. The MVCC path
	// above charges outside every lock, and locksleep keeps it that way.
	defer db.chargeCost(ec)
	r, err := db.readPhase(p, set, tbl.view(latestTS), ec)
	if err != nil {
		return ExecResult{}, err
	}
	return db.commitWrites(tbl, 0, r.updates, r.deletes, ec, false)
}

// commitWrites validates and installs an UPDATE/DELETE write set as one
// atomic commit. With validate set (MVCC), first-writer-wins: any slot
// in the write set with a version newer than snapTS aborts the whole
// statement before anything is installed, so a statement is never
// half-applied. Primary-key checks also run before any install for the
// same all-or-nothing guarantee. A statement that matched zero rows
// still commits (timestamp, log entry) — replicas replay the
// no-op, keeping the log contiguous.
func (db *DB) commitWrites(tbl *table, snapTS int64, updates []rowWrite, deletes []int, ec *execCtx, validate bool) (ExecResult, error) {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if validate {
		for _, w := range updates {
			if tbl.latestBegin(w.id) > snapTS {
				db.conflicts.Add(1)
				return ExecResult{}, ErrWriteConflict
			}
		}
		for _, id := range deletes {
			if tbl.latestBegin(id) > snapTS {
				db.conflicts.Add(1)
				return ExecResult{}, ErrWriteConflict
			}
		}
	}
	for _, w := range updates {
		if err := tbl.checkUpdate(w.id, w.row); err != nil {
			return ExecResult{}, err
		}
	}
	ts := db.commitTS.Load() + 1
	horizon := db.pruneHorizon()
	tbl.reapTombstones(horizon)
	for _, w := range updates {
		tbl.applyUpdate(w.id, w.row, ts, horizon)
		ec.cost.written++
	}
	for _, id := range deletes {
		tbl.applyDelete(id, ts, horizon)
		ec.cost.written++
	}
	db.finishCommit(ec, ts)
	return ExecResult{RowsAffected: int64(len(updates) + len(deletes)), CommitTS: ts}, nil
}
