package sqldb

import (
	"slices"
	"strconv"
	"sync"
)

// This file is the execution layer of the SELECT pipeline (see plan.go
// for the layering). A statement executes as one streaming pass: the
// access path of the driving table produces candidate rows, the joins
// extend each into combined rows (nested-loop or index-nested-loop per
// the plan) with the WHERE conjuncts applied at the shallowest depth
// possible, and every fully matched combined row is handed to the
// statement's sink — project, ordered, or aggregate — in the reused rows
// slice. Nothing is copied unless the sink keeps it. Index results are
// stale-tolerant hints throughout: every operator re-checks its
// predicate against the visible row.

// execSelect runs a SELECT. In lock mode it holds the read locks of its
// tables for the whole cost-padded statement (the paper's contention
// behavior); under MVCC it reads a fixed snapshot lock-free and charges
// cost with nothing held, so readers never block writers or each other.
func (db *DB) execSelect(s *selectStmt, ec *execCtx) (*ResultSet, error) {
	plan, err := db.planOf(s)
	if err != nil {
		return nil, err
	}
	if db.mvcc.Load() {
		ts := db.pinCurrent()
		db.snapshotReads.Inc()
		defer db.unpinSnapshot(ts)
		defer db.chargeCost(ec) // no locks held; the sleep delays only this statement
		return db.runSelect(plan, ts, ec)
	}
	for _, t := range plan.locks {
		t.lock.RLock()
	}
	defer plan.unlockRead()
	defer db.chargeCost(ec) // sleep the cost before releasing the locks: the paper's contention model
	return db.runSelect(plan, latestTS, ec)
}

// unlockRead releases execSelect's read locks, in reverse order.
func (p *selectPlan) unlockRead() {
	for i := len(p.locks) - 1; i >= 0; i-- {
		p.locks[i].lock.RUnlock()
	}
}

// execSelectAt runs a SELECT lock-free against the snapshot at ts — the
// engine behind Snapshot.Query, valid in either concurrency mode.
func (db *DB) execSelectAt(s *selectStmt, ec *execCtx, ts int64) (*ResultSet, error) {
	plan, err := db.planOf(s)
	if err != nil {
		return nil, err
	}
	db.pinSnapshot(ts)
	defer db.unpinSnapshot(ts)
	defer db.chargeCost(ec)
	return db.runSelect(plan, ts, ec)
}

// planOf returns the statement's cached plan, or plans on the fly a
// statement that was parsed directly instead of prepared (tests).
func (db *DB) planOf(s *selectStmt) (*selectPlan, error) {
	if s.plan != nil {
		return s.plan, nil
	}
	return db.planSelect(s)
}

// maxInlineTables is the join width a selectRun serves from its own
// inline arrays; every TPC-W statement joins at most three tables.
const maxInlineTables = 4

// selectRun is the per-execution state of one SELECT: the table views at
// the statement's snapshot, the combined row under construction, and the
// sink.
type selectRun struct {
	db   *DB
	plan *selectPlan
	ec   *execCtx
	sink rowSink

	views   []tableView
	rows    [][]Value // rows[i] is binding i's row of the current combination
	probes  [][]int   // per-depth scratch for ordered-index equality probes
	counted []bool    // join steps already counted in the plan probes

	inline struct {
		views   [maxInlineTables]tableView
		rows    [maxInlineTables][]Value
		probes  [maxInlineTables][]int
		counted [maxInlineTables]bool
	}
}

// selectScratch is the fixed-size state of one SELECT execution besides
// its context: the run, and the sink of a plain SELECT. A connection
// executes one statement at a time and holds context and scratch by
// value, so that a point lookup allocates its result and nothing else;
// Conn.Query zeroes both on the way out, and a parked connection
// references no row, view, argument or result. A SELECT off a connection
// (Snapshot.Query) allocates its own.
//
// The ordered and aggregate sinks are not here: their buffers grow with
// the rows they hold, and a server parks a connection per worker. They
// are pooled across connections instead (orderedSinks, aggSinks).
type selectScratch struct {
	run  selectRun
	proj projectSink
}

// Sinks that hold rows while a statement runs, emptied and pooled by
// their finish. One that grew past pooledRows rows is left to the
// collector rather than kept at that size.
var (
	orderedSinks = sync.Pool{New: func() any { return new(orderedSink) }}
	aggSinks     = sync.Pool{New: func() any { return new(aggSink) }}
)

const pooledRows = 4096

// runSelect is the mode-independent SELECT core: bind the plan's tables
// at ts, stream the matches into the sink, apply OFFSET/LIMIT.
func (db *DB) runSelect(plan *selectPlan, ts int64, ec *execCtx) (*ResultSet, error) {
	if ec.scratch == nil {
		ec.scratch = new(selectScratch)
	}
	r := &ec.scratch.run
	r.db, r.plan, r.ec = db, plan, ec
	if n := len(plan.bindings); n <= maxInlineTables {
		r.views, r.rows = r.inline.views[:n], r.inline.rows[:n]
		r.probes, r.counted = r.inline.probes[:n], r.inline.counted[:n]
	} else {
		r.views, r.rows = make([]tableView, n), make([][]Value, n)
		r.probes, r.counted = make([][]int, n), make([]bool, n)
	}
	for i, b := range plan.bindings {
		r.views[i] = b.tbl.view(ts)
	}
	rs := &ResultSet{Columns: plan.columns}
	err := r.enumerate(rs)
	db.flushPlanRows(ec)
	if err != nil {
		return nil, err
	}
	if err := r.sink.finish(rs); err != nil {
		return nil, err
	}
	applyLimit(rs, plan.limit, plan.offset)
	return rs, nil
}

// enumerate picks the sink, which builds rs's rows, and runs the driving
// table's access path; visit extends each candidate through the joins.
func (r *selectRun) enumerate(rs *ResultSet) error {
	plan := r.plan
	outer := plan.outer
	if outer.kind == pathIndexOrder {
		if oidx, ok := r.views[0].lookupOrdered(outer.colName); ok {
			r.sink = r.projectSink(rs)
			return r.walkOrdered(oidx)
		}
		// Ordered index gone (replaced by a hash index between planning
		// and execution): scan, and sort like any other ORDER BY.
		outer = accessPath{kind: pathScan}
	}
	switch {
	case plan.aggregated():
		s := aggSinks.Get().(*aggSink)
		s.plan, s.cost = plan, &r.ec.cost
		r.sink = s
	case len(plan.sortKeys) > 0:
		s := orderedSinks.Get().(*orderedSink)
		s.plan, s.cost = plan, &r.ec.cost
		s.top.reset(plan.sortKeys, plan.keep())
		r.sink = s
	default:
		r.sink = r.projectSink(rs)
	}
	return r.db.drive(outer, r.views[0], r.ec, &r.probes[0], r)
}

// projectSink readies the sink of a plain SELECT, whose rows go straight
// into rs.
func (r *selectRun) projectSink(rs *ResultSet) *projectSink {
	s := &r.ec.scratch.proj
	s.items, s.keep, s.out = r.plan.items, r.plan.keep(), rs.one[:0]
	return s
}

// walkOrdered is the index-order access path: walk the ordered index in
// ORDER BY order, stopping once LIMIT+OFFSET filtered rows are in hand.
// Join-free by construction (the planner only picks it for single-table
// SELECTs).
func (r *selectRun) walkOrdered(oidx *orderedIndex) error {
	outer := r.plan.outer
	r.db.planIndex.Inc()
	es, _ := oidx.state.Load().allEntries()
	ci := oidx.col
	iterated := 0
	for i := range es {
		e := es[i]
		if outer.desc {
			e = es[len(es)-1-i]
		}
		iterated++
		r.ec.cost.probes++
		row := r.views[0].row(e.id)
		// Entry-vs-visible re-check: an updated row has entries at both
		// its old and new position; emitting it anywhere but its current
		// value's position would break the order (and duplicate the row).
		if row == nil || !valuesEqual(row[ci], e.val) {
			continue
		}
		before := r.ec.cost.matched
		if err := r.visit(e.id, row); err != nil {
			return err
		}
		if now := r.ec.cost.matched; outer.stop >= 0 && now > before && now >= outer.stop {
			break
		}
	}
	r.ec.planRows += int64(iterated)
	return nil
}

// visit receives one candidate row of the driving table.
func (r *selectRun) visit(_ int, row []Value) error {
	r.rows[0] = row
	ok, err := r.applyPreds(0)
	if err != nil || !ok {
		return err
	}
	return r.join(1)
}

// applyPreds evaluates the depth-i conjuncts on the partial row.
func (r *selectRun) applyPreds(i int) (bool, error) {
	for _, p := range r.plan.preds[i] {
		ok, err := p.eval(r.rows, r.ec)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// join extends the partial combination rows[:i] with every matching row
// of binding i, or emits it once every binding is bound.
func (r *selectRun) join(i int) error {
	if i == len(r.rows) {
		r.ec.cost.matched++
		r.sink.emit(r.rows)
		return nil
	}
	jp := &r.plan.joins[i-1]
	outerVal := r.rows[jp.outerBi][jp.outerCi]
	inner := r.views[i]
	// Join steps count their access path once per statement execution.
	if !r.counted[i] {
		r.counted[i] = true
		if jp.indexed {
			r.db.planIndex.Inc()
		} else {
			r.db.planScans.Inc()
		}
	}
	var err error
	switch {
	case jp.innerPK:
		if id, ok := r.db.probePK(inner, outerVal, r.ec); ok {
			err = r.joinRow(i, jp, inner.row(id), outerVal)
		}
	case jp.indexed:
		for _, id := range r.db.probeIndex(inner, jp.innerName, outerVal, r.ec, &r.probes[i]) {
			if err = r.joinRow(i, jp, inner.row(id), outerVal); err != nil {
				break
			}
		}
	default:
		n := inner.size()
		r.ec.cost.scanned += n
		r.ec.planRows += int64(n)
		for id := 0; id < n && err == nil; id++ {
			err = r.joinRow(i, jp, inner.row(id), outerVal)
		}
	}
	r.rows[i] = nil
	return err
}

// joinRow binds row as binding i's side of the combination if it
// satisfies the join equality and the depth-i conjuncts. The equality is
// always checked here: index buckets are stale-tolerant hints, so an id
// may point at a row whose visible version no longer (or, at this
// snapshot, does not yet) match.
func (r *selectRun) joinRow(i int, jp *joinStep, row []Value, outerVal Value) error {
	if row == nil || !valuesEqual(row[jp.innerCol], outerVal) {
		return nil
	}
	r.rows[i] = row
	ok, err := r.applyPreds(i)
	if err != nil || !ok {
		return err
	}
	return r.join(i + 1)
}

// ---- access paths ----

// rowVisitor receives the candidate rows an access path produces: slot
// id and the row version visible in the view. Candidates are hints — the
// visitor re-checks its predicates.
type rowVisitor interface {
	visit(id int, row []Value) error
}

// pathValue resolves an access path's bound operand row-independently.
// ok=false (missing argument, un-normalizable value) degrades the path
// to a scan rather than erroring — the compiled predicates will surface
// any real argument error.
func pathValue(op operand, ec *execCtx) (Value, bool) {
	v, err := constOperand(op, ec)
	if err != nil {
		return nil, false
	}
	nv, err := normalize(v)
	if err != nil {
		return nil, false
	}
	return nv, true
}

// drive executes access path p over one table view, handing every
// candidate row to vis and charging honest scan/probe costs. Index paths
// degrade to the scan when the index or a bound value is unavailable at
// execution time. probeBuf is scratch for ordered-index equality probes.
// Shared by the SELECT driving table and the DML read phases (indexes
// change DML predicate evaluation too).
func (db *DB) drive(p accessPath, v tableView, ec *execCtx, probeBuf *[]int, vis rowVisitor) error {
	switch p.kind {
	case pathPK:
		if val, ok := pathValue(p.eq, ec); ok {
			db.planIndex.Inc()
			if id, ok := db.probePK(v, val, ec); ok {
				if row := v.row(id); row != nil {
					return vis.visit(id, row)
				}
			}
			return nil
		}
	case pathIndexEq:
		if val, ok := pathValue(p.eq, ec); ok {
			db.planIndex.Inc()
			for _, id := range db.probeIndex(v, p.colName, val, ec, probeBuf) {
				if row := v.row(id); row != nil {
					if err := vis.visit(id, row); err != nil {
						return err
					}
				}
			}
			return nil
		}
	case pathIndexRange:
		if handled, err := db.driveRange(p, v, ec, vis); handled {
			return err
		}
	}
	// Full scan: every live slot of the view.
	n := v.size()
	ec.cost.scanned += n
	db.planScans.Inc()
	ec.planRows += int64(n)
	for id := 0; id < n; id++ {
		if row := v.row(id); row != nil {
			if err := vis.visit(id, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// probePK resolves a value through the primary-key index without
// allocating, locking or writing shared memory, charging one probe. The
// slot is a hint; callers re-check the predicate against the visible row.
func (db *DB) probePK(v tableView, val Value, ec *execCtx) (int, bool) {
	ec.cost.probes++
	ec.planRows++
	key, ok := val.(int64)
	if !ok {
		f, fok := val.(float64)
		if !fok {
			return 0, false
		}
		key = int64(f)
	}
	return v.lookupPK(key)
}

// probeIndex resolves an equality through a secondary index and charges
// probe costs. The result is either an immutable hash bucket or *buf
// (see lookupIndex); hints again.
func (db *DB) probeIndex(v tableView, col string, val Value, ec *execCtx, buf *[]int) []int {
	ids, visited, ok := v.lookupIndex(col, val, buf)
	if !ok {
		return nil
	}
	ec.cost.probes += visited + 1
	ec.planRows += int64(visited)
	return ids
}

// driveRange is the index-range access path: entries of the ordered
// index inside the bounds, filtered by the entry-vs-visible-row check (a
// row whose key was updated has entries under both values; only the one
// matching the visible row may produce it, which also keeps the result
// duplicate-free). handled=false means the index or a bound value is
// unavailable and nothing was charged.
func (db *DB) driveRange(p accessPath, v tableView, ec *execCtx, vis rowVisitor) (handled bool, err error) {
	oidx, ok := v.lookupOrdered(p.colName)
	if !ok {
		return false, nil
	}
	var lo, hi Value
	hasLo, hasHi := p.lo != nil, p.hi != nil
	var loExcl, hiExcl bool
	if hasLo {
		if lo, ok = pathValue(p.lo.rhs, ec); !ok {
			return false, nil
		}
		loExcl = p.lo.excl
	}
	if hasHi {
		if hi, ok = pathValue(p.hi.rhs, ec); !ok {
			return false, nil
		}
		hiExcl = p.hi.excl
	}
	es, visited := oidx.state.Load().rangeEntries(lo, loExcl, hasLo, hi, hiExcl, hasHi)
	db.planIndex.Inc()
	ec.cost.probes += visited + 1
	ec.planRows += int64(visited)
	ci := oidx.col
	for _, e := range es {
		row := v.row(e.id)
		if row == nil || !valuesEqual(row[ci], e.val) {
			continue
		}
		if err := vis.visit(e.id, row); err != nil {
			return true, err
		}
	}
	return true, nil
}

// ---- sinks ----

// rowSink consumes the fully matched combined rows of one execution.
// rows is the enumerator's scratch and is overwritten by the next match:
// a sink copies out what it keeps. finish stores the result rows, before
// OFFSET/LIMIT are applied, in rs.Rows.
//
// Result rows belong to the caller. They are cut from storage shared
// with their neighbours, so each is capped at its length: appending to
// one reallocates it instead of writing into the next.
type rowSink interface {
	emit(rows [][]Value)
	finish(rs *ResultSet) error
}

// rowSlab cuts rows of one width from slabs that double in size, so n
// rows cost O(log n) allocations, and the one row of a point lookup
// exactly one of its own size.
type rowSlab struct {
	free []Value
	rows int // rows in the newest slab
}

// cut returns a zeroed row. room is how many more rows the caller can
// ask for, this one included; negative means unknown.
func (s *rowSlab) cut(width, room int) []Value {
	if len(s.free) < width {
		s.rows = max(2*s.rows, 1)
		if room >= 0 {
			s.rows = min(s.rows, room)
		}
		s.free = make([]Value, s.rows*width)
	}
	row := s.free[:width:width]
	s.free = s.free[width:]
	return row
}

// projectSink appends each projected row straight to the result. It
// keeps no more than LIMIT+OFFSET rows but never stops the enumeration:
// stopping early would change the statement's cost counters (the one
// early stop, the index-order walk's, is the access path's own).
type projectSink struct {
	items []outItem
	keep  int
	slab  rowSlab
	out   [][]Value // starts as the result's own one-row header
}

func (s *projectSink) emit(rows [][]Value) {
	if s.keep >= 0 && len(s.out) >= s.keep {
		return
	}
	row := s.slab.cut(len(s.items), s.keep-len(s.out))
	for i, it := range s.items {
		row[i] = rows[it.pos.bi][it.pos.ci]
	}
	s.out = append(s.out, row)
}

func (s *projectSink) finish(rs *ResultSet) error {
	rs.Rows = s.out
	return nil
}

// topEntry is one row the ordered sink holds, with its arrival number.
type topEntry struct {
	row []Value
	seq int
}

// topK keeps the first `keep` rows of a stable sort of everything it is
// offered, without holding the rest. Rows are ordered by (sort keys,
// arrival number), a total order, so the kept set and its order are
// exactly what sort.SliceStable over all rows followed by a [:keep]
// slice would give, ties included. While fewer than keep rows are held
// they are simply appended; at keep rows they become a max-heap on that
// order, whose root is the worst row held: a later row that does not
// sort strictly before the root can never make the cut (it arrives
// after it, so a tie loses) and is dropped before anything is copied.
// keep < 0 holds everything.
type topK struct {
	keys []sortKey
	keep int
	ents []topEntry
	n    int     // rows offered so far
	cand []Value // sort key values of the row being offered, in key order
	err  error   // first comparison error
}

// reset readies t for one execution, reusing its buffers.
func (t *topK) reset(keys []sortKey, keep int) {
	*t = topK{keys: keys, keep: keep, ents: t.ents[:0], cand: slices.Grow(t.cand[:0], len(keys))[:len(keys)]}
}

// release drops what the execution held and keeps the emptied buffers.
func (t *topK) release() {
	clear(t.ents)
	clear(t.cand)
	*t = topK{ents: t.ents[:0], cand: t.cand[:0]}
}

// order folds a key comparison into the sort direction.
func (t *topK) order(k sortKey, a, b Value) int {
	c, err := compare(a, b)
	if err != nil && t.err == nil {
		t.err = err
	}
	if k.desc {
		return -c
	}
	return c
}

// cmpEntries orders two held rows by (sort keys, arrival).
func (t *topK) cmpEntries(a, b topEntry) int {
	for _, k := range t.keys {
		if c := t.order(k, a.row[k.out], b.row[k.out]); c != 0 {
			return c
		}
	}
	return a.seq - b.seq
}

// full reports whether keeping another row means dropping the root.
func (t *topK) full() bool { return t.keep >= 0 && len(t.ents) >= t.keep }

// offer counts one arriving row, whose key values the caller has put in
// cand, and reports whether it makes the cut; if so the caller builds
// the row and hands it to hold.
func (t *topK) offer() bool {
	t.n++
	if !t.full() {
		return true
	}
	if t.keep == 0 {
		return false
	}
	worst := t.ents[0].row
	for i, k := range t.keys {
		if c := t.order(k, t.cand[i], worst[k.out]); c != 0 {
			return c < 0
		}
	}
	return false
}

// hold keeps the row just offered; when full, in place of the root.
func (t *topK) hold(row []Value) {
	e := topEntry{row: row, seq: t.n - 1}
	if !t.full() {
		t.ents = append(t.ents, e)
		if len(t.ents) == t.keep {
			for i := len(t.ents)/2 - 1; i >= 0; i-- {
				t.siftDown(i)
			}
		}
		return
	}
	t.ents[0] = e
	t.siftDown(0)
}

func (t *topK) siftDown(i int) {
	for {
		big := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(t.ents); c++ {
			if t.cmpEntries(t.ents[c], t.ents[big]) > 0 {
				big = c
			}
		}
		if big == i {
			return
		}
		t.ents[i], t.ents[big] = t.ents[big], t.ents[i]
		i = big
	}
}

// sorted stores the held rows in rs in order, each cut to width columns.
func (t *topK) sorted(rs *ResultSet, width int) error {
	slices.SortFunc(t.ents, t.cmpEntries)
	rs.Rows = rs.header(len(t.ents))
	for i, e := range t.ents {
		rs.Rows[i] = e.row[:width:width]
	}
	return t.err
}

// orderedSink is ORDER BY over a plain SELECT: Sort followed by Limit,
// executed as a bounded stable top-K. A row is projected — with the sort
// columns that are not projected carried as hidden trailing values —
// only once its keys have made the cut, and a row that displaces the
// worst one held is built in that row's storage: LIMIT k allocates
// O(log k) however many rows match. Every matched row still counts as
// sorted: that is what the statement is charged for.
type orderedSink struct {
	plan *selectPlan
	cost *costCounter
	top  topK
	slab rowSlab
}

// release empties the sink and pools it.
func (s *orderedSink) release() {
	if cap(s.top.ents) > pooledRows {
		return
	}
	s.top.release()
	*s = orderedSink{top: s.top}
	orderedSinks.Put(s)
}

func (s *orderedSink) emit(rows [][]Value) {
	s.cost.sorted++
	for i, k := range s.plan.sortKeys {
		s.top.cand[i] = rows[k.in.bi][k.in.ci]
	}
	if !s.top.offer() {
		return
	}
	items, hidden := s.plan.items, s.plan.hidden
	var row []Value
	if s.top.full() {
		row = s.top.ents[0].row
	} else {
		row = s.slab.cut(len(items)+len(hidden), s.top.keep-len(s.top.ents))
	}
	for i, it := range items {
		row[i] = rows[it.pos.bi][it.pos.ci]
	}
	for i, h := range hidden {
		row[len(items)+i] = rows[h.bi][h.ci]
	}
	s.top.hold(row)
}

func (s *orderedSink) finish(rs *ResultSet) error {
	defer s.release()
	return s.top.sorted(rs, len(s.plan.items))
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	count    int64
	sum      float64
	sumInts  bool
	min, max Value
	seen     bool
}

// add folds v into the state of an aggregate of the given kind.
func (a *aggState) add(kind aggKind, v Value) {
	if v == nil {
		return
	}
	a.count++
	switch kind {
	case aggSum, aggAvg:
		if n, ok := asNumber(v); ok {
			a.sum += n
			_, isInt := v.(int64)
			a.sumInts = isInt && (a.sumInts || !a.seen)
		}
		a.seen = true
	case aggMin, aggMax:
		if !a.seen {
			a.min, a.max, a.seen = v, v, true
			return
		}
		if c, err := compare(v, a.min); err == nil && c < 0 {
			a.min = v
		}
		if c, err := compare(v, a.max); err == nil && c > 0 {
			a.max = v
		}
	}
}

// result is the aggregate's output value.
func (a *aggState) result(kind aggKind) Value {
	switch kind {
	case aggCount:
		return a.count
	case aggSum:
		if a.sumInts {
			return int64(a.sum)
		}
		return a.sum
	case aggAvg:
		if a.count == 0 {
			return nil
		}
		return a.sum / float64(a.count)
	case aggMin:
		return a.min
	default:
		return a.max
	}
}

// aggSink is GROUP BY / aggregation: each matched row updates its
// group's state in place and is otherwise not kept. Groups are numbered
// in first-seen order and come out in it, or through the same top-K as a
// plain ORDER BY. Everything here is scratch — output rows included: the
// rows that make the result are copied out by finish, so a statement
// over g groups on a warm sink allocates its result and a string per
// multi-column key.
type aggSink struct {
	plan    *selectPlan
	cost    *costCounter
	byValue map[Value]int  // plan.groupByValue: keyed by the group column's value
	byKey   map[string]int // formatted multi-column (or Float/Time) key
	key     []byte         // scratch for byKey
	n       int            // groups
	outs    []Value        // group g's output row at g*len(plan.items), plain columns from its first row
	states  []aggState     // group g's states at g*plan.aggStates
	top     topK
}

// release empties the sink and pools it.
func (s *aggSink) release() {
	if s.n > pooledRows {
		return
	}
	clear(s.byValue)
	clear(s.byKey)
	clear(s.outs)
	clear(s.states)
	s.top.release()
	*s = aggSink{byValue: s.byValue, byKey: s.byKey, key: s.key[:0], outs: s.outs[:0], states: s.states[:0], top: s.top}
	aggSinks.Put(s)
}

// out is group g's output row.
func (s *aggSink) out(g int) []Value {
	w := len(s.plan.items)
	return s.outs[g*w : (g+1)*w]
}

// newGroup adds a group whose plain columns come from rows (nil: the
// synthetic group of an empty input).
func (s *aggSink) newGroup(rows [][]Value) int {
	g := s.n
	s.n++
	s.outs = append(s.outs, make([]Value, len(s.plan.items))...)
	s.states = append(s.states, make([]aggState, s.plan.aggStates)...)
	if rows != nil {
		out := s.out(g)
		for i, it := range s.plan.items {
			if it.kind == aggNone {
				out[i] = rows[it.pos.bi][it.pos.ci]
			}
		}
	}
	return g
}

// groupOf finds or creates the group of a combined row.
func (s *aggSink) groupOf(rows [][]Value) int {
	switch {
	case len(s.plan.group) == 0:
		if s.n == 0 {
			s.newGroup(rows)
		}
		return 0
	case s.plan.groupByValue:
		pos := s.plan.group[0]
		v := rows[pos.bi][pos.ci]
		g, ok := s.byValue[v]
		if !ok {
			if s.byValue == nil {
				s.byValue = make(map[Value]int)
			}
			g = s.newGroup(rows)
			s.byValue[v] = g
		}
		return g
	}
	s.key = s.key[:0]
	for _, pos := range s.plan.group {
		switch v := rows[pos.bi][pos.ci].(type) {
		case string:
			s.key = append(s.key, v...)
		case int64:
			s.key = strconv.AppendInt(s.key, v, 10)
		default:
			s.key = append(s.key, FormatValue(v)...)
		}
		s.key = append(s.key, 0)
	}
	g, ok := s.byKey[string(s.key)]
	if !ok {
		if s.byKey == nil {
			s.byKey = make(map[string]int)
		}
		g = s.newGroup(rows)
		s.byKey[string(s.key)] = g
	}
	return g
}

func (s *aggSink) emit(rows [][]Value) {
	s.cost.sorted++ // GROUP BY is charged like a sort
	states := s.states[s.groupOf(rows)*s.plan.aggStates:]
	for _, it := range s.plan.items {
		switch {
		case it.kind == aggNone:
		case it.star:
			states[it.state].count++
		default:
			states[it.state].add(it.kind, rows[it.pos.bi][it.pos.ci])
		}
	}
}

func (s *aggSink) finish(rs *ResultSet) error {
	defer s.release()
	// SQL semantics: an ungrouped aggregate over an empty set still
	// yields one row (COUNT 0, SUM/AVG/MIN/MAX NULL, plain columns NULL).
	if s.n == 0 && len(s.plan.group) == 0 {
		s.newGroup(nil)
	}
	items, keep := s.plan.items, s.plan.keep()
	for g := range s.n {
		out, states := s.out(g), s.states[g*s.plan.aggStates:]
		for i, it := range items {
			if it.kind != aggNone {
				out[i] = states[it.state].result(it.kind)
			}
		}
	}
	var err error
	if keys := s.plan.sortKeys; len(keys) > 0 {
		// Aggregated queries order by output columns, including aggregate
		// aliases (ORDER BY qty DESC).
		s.top.reset(keys, keep)
		s.cost.sorted += s.n
		for g := range s.n {
			out := s.out(g)
			for i, k := range keys {
				s.top.cand[i] = out[k.out]
			}
			if s.top.offer() {
				s.top.hold(out)
			}
		}
		err = s.top.sorted(rs, len(items))
	} else {
		n := s.n
		if keep >= 0 {
			n = min(n, keep)
		}
		rs.Rows = rs.header(n)
		for g := range rs.Rows {
			rs.Rows[g] = s.out(g)
		}
	}
	// The rows kept are the caller's: copy them out of the scratch.
	flat := make([]Value, len(rs.Rows)*len(items))
	for i, row := range rs.Rows {
		lo, hi := i*len(items), (i+1)*len(items)
		copy(flat[lo:hi], row)
		rs.Rows[i] = flat[lo:hi:hi]
	}
	return err
}

func applyLimit(rs *ResultSet, limit, offset int) {
	if offset > 0 {
		if offset >= len(rs.Rows) {
			rs.Rows = rs.Rows[:0]
		} else {
			rs.Rows = rs.Rows[offset:]
		}
	}
	if limit >= 0 && limit < len(rs.Rows) {
		rs.Rows = rs.Rows[:limit]
	}
}
