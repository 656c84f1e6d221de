package sqldb

import (
	"fmt"
	"slices"
	"strings"
)

// binding is one table instance participating in a statement (FROM or
// JOIN), addressed by its alias. Bindings are resolved once, at prepare
// time; the snapshot a statement reads each table at is a tableView
// taken per execution.
type binding struct {
	ref tableRef
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
	// sql is the original statement text, kept for the DML apply hook.
	sql string
	// argBuf backs args for the usual short argument list, so the context
	// and its arguments are one allocation.
	argBuf [4]Value
	// like is the LIKE pattern this execution last matched against.
	like likePattern
	// scratch is what a SELECT runs on: the connection's, or one
	// runSelect allocates for a statement off a connection.
	scratch *selectScratch
}

// resolveBindings maps the FROM/JOIN clauses onto tables.
func (db *DB) resolveBindings(s *selectStmt) ([]binding, error) {
	refs := append([]tableRef{s.From}, make([]tableRef, 0, len(s.Joins))...)
	for _, j := range s.Joins {
		refs = append(refs, j.Table)
	}
	bindings := make([]binding, len(refs))
	seen := make(map[string]bool, len(refs))
	for i, ref := range refs {
		tbl, err := db.lookupTable(ref.Table)
		if err != nil {
			return nil, err
		}
		name := ref.name()
		if seen[name] {
			return nil, fmt.Errorf("sqldb: duplicate table alias %q", name)
		}
		seen[name] = true
		bindings[i] = binding{ref: ref, tbl: tbl}
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

// resolveCol locates a column reference among the bindings.
func resolveCol(bindings []binding, ref colRef) (bindIdx, colIdx int, err error) {
	if ref.Table != "" {
		for bi, b := range bindings {
			if b.ref.name() == ref.Table {
				ci := b.tbl.schema.colIndex(ref.Column)
				if ci < 0 {
					return 0, 0, fmt.Errorf("sqldb: table %q has no column %q", ref.Table, ref.Column)
				}
				return bi, ci, nil
			}
		}
		return 0, 0, fmt.Errorf("sqldb: unknown table %q in column reference", ref.Table)
	}
	found := -1
	for bi, b := range bindings {
		if ci := b.tbl.schema.colIndex(ref.Column); ci >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("sqldb: ambiguous column %q", ref.Column)
			}
			found = bi
			colIdx = ci
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("sqldb: unknown column %q", ref.Column)
	}
	return found, colIdx, nil
}

// constOperand evaluates a row-independent operand: a literal or a
// placeholder. Column references are an error here; operands that may
// name a column are compiled (compileOperand).
func constOperand(op operand, ec *execCtx) (Value, error) {
	switch {
	case op.IsLit:
		return op.Lit, nil
	case op.IsPlacehold:
		if op.Placeholder >= len(ec.args) {
			return nil, fmt.Errorf("sqldb: missing argument for placeholder %d", op.Placeholder+1)
		}
		return ec.args[op.Placeholder], nil
	default:
		return nil, fmt.Errorf("sqldb: column %s in row-independent position", op.Col)
	}
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
		v, err := constOperand(s.Values[i], ec)
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
	defer db.chargeCost(ec) //lint:allow locksleep(lock-engine charges under the table lock by design)
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
// the table, the WHERE clause compiled to closures, the candidate access
// paths the WHERE admits, and (UPDATE) the SET columns and their
// compiled value expressions. The candidates are ranked against the full
// scan on every execution (cheapestPath, allocation-free) rather than
// once: DML statements are first prepared against near-empty tables
// (shopping_cart_line), where the scan wins, and a path frozen then
// would scan, and be charged as a scan, forever after.
type dmlPlan struct {
	tbl     *table
	cands   []accessPath
	preds   []compiledPred
	setCols []int
	setVals []operandFn
}

// planDML compiles the read phase of an UPDATE (cols/vals set) or
// DELETE (both nil) on one table.
func (db *DB) planDML(table string, where boolExpr, cols []string, vals []operand) (*dmlPlan, error) {
	tbl, err := db.lookupTable(table)
	if err != nil {
		return nil, err
	}
	bindings := []binding{{ref: tableRef{Table: table}, tbl: tbl}}
	preds, err := compileWhere(where, bindings)
	if err != nil {
		return nil, err
	}
	p := &dmlPlan{tbl: tbl, cands: predPaths(where, bindings), preds: preds[0]}
	for i, col := range cols {
		ci := tbl.schema.colIndex(col)
		if ci < 0 {
			return nil, fmt.Errorf("sqldb: table %q has no column %q", table, col)
		}
		fn, _, err := compileOperand(vals[i], bindings)
		if err != nil {
			return nil, err
		}
		p.setCols = append(p.setCols, ci)
		p.setVals = append(p.setVals, fn)
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
	err := db.drive(db.cheapestPath(p.tbl, p.cands), view, ec, &r.probes, r)
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

func (r *dmlRun) visit(id int, row []Value) error {
	r.rows[0] = row
	rows := r.rows[:]
	for _, pred := range r.plan.preds {
		ok, err := pred.eval(rows, r.ec)
		if err != nil || !ok {
			return err
		}
	}
	if r.set == nil {
		r.deletes = append(r.deletes, id)
		return nil
	}
	// Evaluate the SET expressions against the snapshot row and build the
	// full replacement row.
	tbl := r.plan.tbl
	newRow := append([]Value(nil), row...)
	for i, fn := range r.plan.setVals {
		v, err := fn(rows, r.ec)
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
	defer db.chargeCost(ec) //lint:allow locksleep(lock-engine charges under the table lock by design)
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
// still commits (timestamp, log entry, hook) — replicas replay the
// no-op, keeping the log contiguous.
func (db *DB) commitWrites(tbl *table, snapTS int64, updates []rowWrite, deletes []int, ec *execCtx, validate bool) (ExecResult, error) {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if validate {
		for _, w := range updates {
			if tbl.latestBegin(w.id) > snapTS {
				db.conflicts.Inc()
				return ExecResult{}, ErrWriteConflict
			}
		}
		for _, id := range deletes {
			if tbl.latestBegin(id) > snapTS {
				db.conflicts.Inc()
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
