package sqldb

import (
	"math/bits"
	"slices"
	"sync"
)

// This file is the execution layer of the SELECT pipeline (see plan.go
// for the layering). A statement executes as one streaming pass: the
// access path of the driving table produces candidate rows, each join
// extends them by a primary-key probe of its table, with the WHERE
// conjuncts applied at the shallowest depth possible, and every fully
// matched combined row is handed to the statement's sink — project,
// ordered, or aggregate — in the reused rows slice. Nothing is copied
// unless the sink keeps it. Index results are stale-tolerant hints
// throughout: every operator re-checks its predicate against the
// visible row.

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
		db.snapshotReads.Add(1)
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
// the statement's snapshot, the combined row under construction (with the
// version each binding's row came from, for coded predicates), the sieve
// of each depth that has one, and the sink.
type selectRun struct {
	db   *DB
	plan *selectPlan
	ec   *execCtx
	sink rowSink

	views   []tableView
	rows    [][]Value     // rows[i] is binding i's row of the current combination
	vers    []*rowVersion // vers[i] is the version rows[i] is the data of
	counted []bool        // join steps already counted in the plan probes
	sieves  [][]uint64    // per depth: the slots worth visiting, or nil for all (see sieve)
	probes  []int         // buffer for the driving table's ordered-index equality probes

	inline struct {
		views   [maxInlineTables]tableView
		rows    [maxInlineTables][]Value
		vers    [maxInlineTables]*rowVersion
		counted [maxInlineTables]bool
		sieves  [maxInlineTables][]uint64
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
// at ts and stream the matches into the sink, which keeps LIMIT rows.
func (db *DB) runSelect(plan *selectPlan, ts int64, ec *execCtx) (*ResultSet, error) {
	if ec.scratch == nil {
		ec.scratch = new(selectScratch)
	}
	r := &ec.scratch.run
	r.db, r.plan, r.ec = db, plan, ec
	if n := len(plan.bindings); n <= maxInlineTables {
		r.views, r.rows, r.vers = r.inline.views[:n], r.inline.rows[:n], r.inline.vers[:n]
		r.counted, r.sieves = r.inline.counted[:n], r.inline.sieves[:n]
	} else {
		r.views, r.rows, r.vers = make([]tableView, n), make([][]Value, n), make([]*rowVersion, n)
		r.counted, r.sieves = make([]bool, n), make([][]uint64, n)
	}
	for i, b := range plan.bindings {
		r.views[i] = b.tbl.view(ts)
	}
	if plan.codedPreds > 0 {
		if ec.memo == nil {
			ec.memo = new(codeMemo)
		}
		ec.memo.reset(plan.codedPreds)
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
	return rs, nil
}

// enumerate picks the sink, which builds rs's rows, and runs the driving
// table's access path; visit extends each candidate through the joins.
func (r *selectRun) enumerate(rs *ResultSet) error {
	plan := r.plan
	switch {
	case plan.grouped():
		s := aggSinks.Get().(*aggSink)
		s.plan, s.cost = plan, &r.ec.cost
		r.sink = s
	case len(plan.sortKeys) > 0:
		s := orderedSinks.Get().(*orderedSink)
		s.plan, s.cost = plan, &r.ec.cost
		s.top.reset(plan.sortKeys, plan.limit)
		r.sink = s
	default:
		s := &r.ec.scratch.proj
		s.items, s.keep, s.out = plan.items, plan.limit, rs.one[:0]
		r.sink = s
	}
	// A full scan visits, and a join step probes, only the slots its
	// sieve holds.
	if plan.outer.kind == pathScan {
		r.sieves[0] = r.sieve(0)
	}
	for i := 1; i < len(r.views); i++ {
		r.sieves[i] = r.sieve(i)
	}
	return r.db.drive(plan.outer, r.views[0], r.ec, &r.probes, r.sieves[0], r)
}

// visit receives one candidate row of the driving table.
func (r *selectRun) visit(_ int, rv *rowVersion) error {
	r.rows[0], r.vers[0] = rv.data(), rv
	ok, err := r.applyPreds(0)
	if err != nil || !ok {
		return err
	}
	return r.join(1)
}

// applyPreds evaluates the depth-i conjuncts on the partial row.
func (r *selectRun) applyPreds(i int) (bool, error) {
	return allHold(r.plan.preds[i], r.rows, r.vers[i], r.ec)
}

// join extends the partial combination rows[:i] with the row of binding
// i whose primary key the join column holds, or emits it once every
// binding is bound.
func (r *selectRun) join(i int) error {
	if i == len(r.rows) {
		r.ec.cost.matched++
		r.sink.emit(r.rows)
		return nil
	}
	jp := &r.plan.joins[i-1]
	// Join steps count their access path once per statement execution.
	if !r.counted[i] {
		r.counted[i] = true
		r.db.planIndex.Add(1)
	}
	var err error
	key, ok := r.outerKey(jp)
	if !ok {
		r.ec.chargeProbe()
	} else if _, rv := r.db.probePK(r.views[i], key, r.ec, r.sieves[i]); rv != nil {
		err = r.bind(i, rv)
	}
	r.rows[i], r.vers[i] = nil, nil
	return err
}

// outerKey is the key a join step probes with, read off the outer row's
// version when the outer column is its primary key or has an int slot (a
// slot it does not hold is a NULL cell), else off the outer cell
// (pkKey). ok=false: the outer cell equals no key.
func (r *selectRun) outerKey(jp *joinStep) (key int64, ok bool) {
	ov := r.vers[jp.outer.bi]
	switch {
	case jp.outerPK:
		return ov.key, true
	case jp.outerSlot >= 0:
		return ov.intCell(jp.outerSlot)
	}
	return pkKey(r.rows[jp.outer.bi][jp.outer.ci])
}

// bind makes rv's row binding i's side of the combination and extends it
// if the depth-i conjuncts hold.
func (r *selectRun) bind(i int, rv *rowVersion) error {
	r.rows[i], r.vers[i] = rv.data(), rv
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
	visit(id int, rv *rowVersion) error
}

// pathValue resolves an access path's bound operand row-independently.
// ok=false (missing argument, un-normalizable value) degrades the path
// to a scan rather than erroring — the compiled predicates will surface
// any real argument error.
func pathValue(op operand, ec *execCtx) (Value, bool) {
	v, err := op.value(ec)
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
// A scan with a sieve (selectRun.sieve) is charged for every slot and
// visits only the sieve's, in slot order. Shared by the SELECT driving
// table and the DML read phases (indexes change DML predicate evaluation
// too).
func (db *DB) drive(p accessPath, v tableView, ec *execCtx, probeBuf *[]int, sieve []uint64, vis rowVisitor) error {
	switch p.kind {
	case pathPK:
		if val, ok := pathValue(p.val, ec); ok {
			db.planIndex.Add(1)
			key, ok := pkKey(val)
			if !ok {
				ec.chargeProbe()
				return nil
			}
			if id, rv := db.probePK(v, key, ec, nil); rv != nil {
				return vis.visit(id, rv)
			}
			return nil
		}
	case pathIndexEq:
		if val, ok := pathValue(p.val, ec); ok {
			db.planIndex.Add(1)
			for _, id := range db.probeIndex(v, p.colName, val, ec, probeBuf) {
				if rv := v.version(id); rv != nil {
					if err := vis.visit(id, rv); err != nil {
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
	db.planScans.Add(1)
	ec.planRows += int64(n)
	if sieve != nil {
		for w, held := range sieve {
			for ; held != 0; held &= held - 1 {
				id := w<<6 | bits.TrailingZeros64(held)
				if rv := v.version(id); rv != nil {
					if err := vis.visit(id, rv); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	for id := 0; id < n; id++ {
		if rv := v.version(id); rv != nil {
			if err := vis.visit(id, rv); err != nil {
				return err
			}
		}
	}
	return nil
}

// probePK resolves a primary key through the primary-key index to the row
// version visible in v that holds it, and its slot, or nil. It charges
// one probe for the slot the index names, which is all it takes unless
// the key was given out again after v's snapshot, and one more for each
// older slot of the key it tries then (pkIndex.movedFrom, the only path
// that takes a lock). With a sieve, a key whose slot is outside it and
// has no older slot is rejected without loading the slot: no version it
// holds can pass the join step's first conjunct.
func (db *DB) probePK(v tableView, key int64, ec *execCtx, sieve []uint64) (int, *rowVersion) {
	ec.chargeProbe()
	id, ok := v.lookupPK(key)
	if !ok {
		return 0, nil
	}
	if sieve != nil && !sieved(sieve, id) && len(v.tbl.pk.movedFrom(key)) == 0 {
		return 0, nil
	}
	if rv := v.version(id); rv != nil && rv.key == key {
		return id, rv
	}
	moved := v.tbl.pk.movedFrom(key)
	for j := len(moved) - 1; j >= 0; j-- { // newest first
		old := int(moved[j])
		if old == id {
			continue
		}
		ec.chargeProbe()
		if rv := v.version(old); rv != nil && rv.key == key {
			return old, rv
		}
	}
	return 0, nil
}

// pkKey is the primary key a value equals: itself, an int64, or a float64
// that is one exactly. Any other value (NULL, a fraction, a string) equals
// no key, and a probe for it is charged as one that finds nothing
// (execCtx.chargeProbe).
func pkKey(val Value) (int64, bool) {
	switch x := val.(type) {
	case int64:
		return x, true
	case float64:
		key := int64(x)
		return key, float64(key) == x
	}
	return 0, false
}

// probeIndex resolves an equality through a secondary index and charges
// probe costs. The result is either a capped hash bucket or *buf
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
// index above the bound, filtered by the entry-vs-visible-row check (a
// row whose key was updated has entries under both values; only the one
// matching the visible row may produce it, which also keeps the result
// duplicate-free). handled=false means the index or a bound value is
// unavailable and nothing was charged.
func (db *DB) driveRange(p accessPath, v tableView, ec *execCtx, vis rowVisitor) (handled bool, err error) {
	oidx, ok := v.lookupOrdered(p.colName)
	if !ok {
		return false, nil
	}
	lo, ok := pathValue(p.val, ec)
	if !ok {
		return false, nil
	}
	es, visited := oidx.state.Load().above(lo)
	db.planIndex.Add(1)
	ec.cost.probes += visited + 1
	ec.planRows += int64(visited)
	ci := oidx.col
	for e, ok := es.first(); ok; e, ok = es.first() {
		rv := v.version(e.id)
		if rv == nil || !valuesEqual(rv.data()[ci], e.val) {
			continue
		}
		if err := vis.visit(e.id, rv); err != nil {
			return true, err
		}
	}
	return true, nil
}

// ---- sinks ----

// rowSink consumes the fully matched combined rows of one execution.
// rows is the enumerator's scratch and is overwritten by the next match:
// a sink copies out what it keeps. finish stores the result rows, LIMIT
// applied, in rs.Rows.
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
// keeps no more than LIMIT rows but never stops the enumeration:
// stopping early would change the statement's cost counters.
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

// sorted stores the held rows in rs in order.
func (t *topK) sorted(rs *ResultSet) error {
	slices.SortFunc(t.ents, t.cmpEntries)
	rs.Rows = rs.header(len(t.ents))
	for i, e := range t.ents {
		rs.Rows[i] = e.row
	}
	return t.err
}

// orderedSink is ORDER BY over a plain SELECT: Sort followed by Limit,
// executed as a bounded stable top-K. A row is projected only once its
// keys have made the cut, and a row that displaces the worst one held is
// built in that row's storage: LIMIT k allocates
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
	items := s.plan.items
	var row []Value
	if s.top.full() {
		row = s.top.ents[0].row
	} else {
		row = s.slab.cut(len(items), s.top.keep-len(s.top.ents))
	}
	for i, it := range items {
		row[i] = rows[it.pos.bi][it.pos.ci]
	}
	s.top.hold(row)
}

func (s *orderedSink) finish(rs *ResultSet) error {
	defer s.release()
	return s.top.sorted(rs)
}

// sumState accumulates one SUM over one group: an INT sum while every
// value added is one, a FLOAT sum otherwise. NULLs are skipped.
type sumState struct {
	sum  float64
	ints bool
	seen bool
}

func (a *sumState) add(v Value) {
	if v == nil {
		return
	}
	if n, ok := asNumber(v); ok {
		a.sum += n
		_, isInt := v.(int64)
		a.ints = isInt && (a.ints || !a.seen)
	}
	a.seen = true
}

func (a *sumState) result() Value {
	if a.ints {
		return int64(a.sum)
	}
	return a.sum
}

// aggSink is GROUP BY: each matched row updates its group's sums in
// place and is otherwise not kept. Groups are keyed by the group
// column's value, numbered in first-seen order, and come out in it, or
// through the same top-K as a plain ORDER BY. Everything here is scratch
// — output rows included: the rows that make the result are copied out
// by finish, so a statement over g groups on a warm sink allocates its
// result.
type aggSink struct {
	plan    *selectPlan
	cost    *costCounter
	byValue map[Value]int
	n       int        // groups
	outs    []Value    // group g's output row at g*len(plan.items), plain columns from its first row
	states  []sumState // group g's sums at g*plan.sums
	top     topK
}

// release empties the sink and pools it.
func (s *aggSink) release() {
	if s.n > pooledRows {
		return
	}
	clear(s.byValue)
	clear(s.outs)
	clear(s.states)
	s.top.release()
	*s = aggSink{byValue: s.byValue, outs: s.outs[:0], states: s.states[:0], top: s.top}
	aggSinks.Put(s)
}

// out is group g's output row.
func (s *aggSink) out(g int) []Value {
	w := len(s.plan.items)
	return s.outs[g*w : (g+1)*w]
}

// groupOf finds or creates the group of a combined row.
func (s *aggSink) groupOf(rows [][]Value) int {
	pos := s.plan.group
	v := rows[pos.bi][pos.ci]
	if g, ok := s.byValue[v]; ok {
		return g
	}
	if s.byValue == nil {
		s.byValue = make(map[Value]int)
	}
	g := s.n
	s.n++
	s.byValue[v] = g
	s.outs = append(s.outs, make([]Value, len(s.plan.items))...)
	s.states = append(s.states, make([]sumState, s.plan.sums)...)
	out := s.out(g)
	for i, it := range s.plan.items {
		if !it.sum {
			out[i] = rows[it.pos.bi][it.pos.ci]
		}
	}
	return g
}

func (s *aggSink) emit(rows [][]Value) {
	s.cost.sorted++ // GROUP BY is charged like a sort
	states := s.states[s.groupOf(rows)*s.plan.sums:]
	for _, it := range s.plan.items {
		if it.sum {
			states[it.state].add(rows[it.pos.bi][it.pos.ci])
		}
	}
}

func (s *aggSink) finish(rs *ResultSet) error {
	defer s.release()
	items, keep := s.plan.items, s.plan.limit
	for g := range s.n {
		out, states := s.out(g), s.states[g*s.plan.sums:]
		for i, it := range items {
			if it.sum {
				out[i] = states[it.state].result()
			}
		}
	}
	var err error
	if keys := s.plan.sortKeys; len(keys) > 0 {
		// Grouped queries order their output rows (ORDER BY qty DESC).
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
		err = s.top.sorted(rs)
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
