package sqldb

import (
	"slices"
	"strconv"
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

// runSelect is the mode-independent SELECT core: bind the plan's tables
// at ts, stream the matches into the sink, apply OFFSET/LIMIT.
func (db *DB) runSelect(plan *selectPlan, ts int64, ec *execCtx) (*ResultSet, error) {
	r := &selectRun{db: db, plan: plan, ec: ec}
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
	err := r.enumerate()
	db.flushPlanRows(ec)
	if err != nil {
		return nil, err
	}
	rows, err := r.sink.finish()
	if err != nil {
		return nil, err
	}
	rs := &ResultSet{Columns: plan.columns, Rows: rows}
	applyLimit(rs, plan.limit, plan.offset)
	return rs, nil
}

// enumerate runs the driving table's access path; visit extends each
// candidate through the joins.
func (r *selectRun) enumerate() error {
	plan := r.plan
	outer := plan.outer
	if outer.kind == pathIndexOrder {
		if oidx, ok := r.views[0].lookupOrdered(outer.colName); ok {
			r.sink = newProjectSink(plan)
			return r.walkOrdered(oidx)
		}
		// Ordered index gone (replaced by a hash index between planning
		// and execution): scan, and sort like any other ORDER BY.
		outer = accessPath{kind: pathScan}
	}
	switch {
	case plan.aggregated():
		r.sink = newAggSink(plan, &r.ec.cost)
	case len(plan.sortKeys) > 0:
		r.sink = newOrderedSink(plan, &r.ec.cost)
	default:
		r.sink = newProjectSink(plan)
	}
	return r.db.drive(outer, r.views[0], r.ec, &r.probes[0], r)
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
// a sink copies out what it keeps. finish returns the result rows before
// OFFSET/LIMIT are applied.
type rowSink interface {
	emit(rows [][]Value)
	finish() ([][]Value, error)
}

// projectRow builds the output row of a plain SELECT, with room for
// extra trailing values.
func projectRow(items []outItem, extra int, rows [][]Value) []Value {
	out := make([]Value, len(items), len(items)+extra)
	for i, it := range items {
		out[i] = rows[it.pos.bi][it.pos.ci]
	}
	return out
}

// projectSink appends each projected row straight to the result. It
// keeps no more than LIMIT+OFFSET rows but never stops the enumeration:
// stopping early would change the statement's cost counters (the one
// early stop, the index-order walk's, is the access path's own).
type projectSink struct {
	items []outItem
	keep  int
	out   [][]Value
}

func newProjectSink(p *selectPlan) *projectSink {
	return &projectSink{items: p.items, keep: p.keep(), out: [][]Value{}}
}

func (s *projectSink) emit(rows [][]Value) {
	if s.keep >= 0 && len(s.out) >= s.keep {
		return
	}
	s.out = append(s.out, projectRow(s.items, 0, rows))
}

func (s *projectSink) finish() ([][]Value, error) { return s.out, nil }

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

func newTopK(keys []sortKey, keep int) topK {
	t := topK{keys: keys, keep: keep, cand: make([]Value, len(keys))}
	if keep > 0 {
		t.ents = make([]topEntry, 0, min(keep, 64))
	}
	return t
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

// offer counts one arriving row, whose key values the caller has put in
// cand, and reports whether it makes the cut; if so the caller builds
// the row and hands it to hold.
func (t *topK) offer() bool {
	t.n++
	if t.keep < 0 || len(t.ents) < t.keep {
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

// hold keeps the row just offered.
func (t *topK) hold(row []Value) {
	e := topEntry{row: row, seq: t.n - 1}
	if t.keep < 0 || len(t.ents) < t.keep {
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

// sorted returns the held rows in order, each cut to width columns.
func (t *topK) sorted(width int) ([][]Value, error) {
	slices.SortFunc(t.ents, t.cmpEntries)
	out := make([][]Value, len(t.ents))
	for i, e := range t.ents {
		out[i] = e.row[:width:width]
	}
	return out, t.err
}

// orderedSink is ORDER BY over a plain SELECT: Sort followed by Limit,
// executed as a bounded stable top-K. A row is projected — with the sort
// columns that are not projected carried as hidden trailing values —
// only once its keys have made the cut. Every matched row still counts
// as sorted: that is what the statement is charged for.
type orderedSink struct {
	plan *selectPlan
	cost *costCounter
	top  topK
}

func newOrderedSink(p *selectPlan, cost *costCounter) *orderedSink {
	return &orderedSink{plan: p, cost: cost, top: newTopK(p.sortKeys, p.keep())}
}

func (s *orderedSink) emit(rows [][]Value) {
	s.cost.sorted++
	for i, k := range s.plan.sortKeys {
		s.top.cand[i] = rows[k.in.bi][k.in.ci]
	}
	if !s.top.offer() {
		return
	}
	row := projectRow(s.plan.items, len(s.plan.hidden), rows)
	for _, h := range s.plan.hidden {
		row = append(row, rows[h.bi][h.ci])
	}
	s.top.hold(row)
}

func (s *orderedSink) finish() ([][]Value, error) { return s.top.sorted(len(s.plan.items)) }

// aggState accumulates one aggregate over one group.
type aggState struct {
	count    int64
	sum      float64
	sumInts  bool
	min, max Value
	seen     bool
}

func (a *aggState) add(v Value) {
	if v == nil {
		return
	}
	a.count++
	if n, ok := asNumber(v); ok {
		a.sum += n
		if !a.seen {
			a.sumInts = true
		}
		if _, isInt := v.(int64); !isInt {
			a.sumInts = false
		}
	}
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

// aggGroup is one group's output row — its plain columns filled from the
// group's first row — and its aggregate states.
type aggGroup struct {
	out    []Value
	states []aggState
}

// aggSink is GROUP BY / aggregation: each matched row updates its
// group's state in place and is otherwise not kept. Groups come out in
// first-seen order, then through the same top-K as a plain ORDER BY.
type aggSink struct {
	plan    *selectPlan
	cost    *costCounter
	byValue map[Value]*aggGroup  // plan.groupByValue: keyed by the group column's value
	byKey   map[string]*aggGroup // formatted multi-column (or Float/Time) key
	key     []byte               // scratch for byKey
	groups  []*aggGroup          // first-seen order

	// Groups, their rows and their states are cut from slabs; every
	// refill doubles (up to 32 groups), so g groups cost few allocations.
	slab   []aggGroup
	outs   []Value
	states []aggState
	refill int
}

func newAggSink(p *selectPlan, cost *costCounter) *aggSink {
	s := &aggSink{plan: p, cost: cost}
	switch {
	case len(p.group) == 0:
	case p.groupByValue:
		s.byValue = make(map[Value]*aggGroup)
	default:
		s.byKey = make(map[string]*aggGroup)
	}
	return s
}

// newGroup appends a group whose plain columns come from rows (nil: the
// synthetic group of an empty input).
func (s *aggSink) newGroup(rows [][]Value) *aggGroup {
	nOut, nStates := len(s.plan.items), s.plan.aggStates
	if len(s.slab) == 0 {
		s.refill = min(max(2*s.refill, 1), 32)
		s.slab = make([]aggGroup, s.refill)
		s.outs = make([]Value, s.refill*nOut)
		s.states = make([]aggState, s.refill*nStates)
	}
	g := &s.slab[0]
	g.out, g.states = s.outs[:nOut:nOut], s.states[:nStates:nStates]
	s.slab, s.outs, s.states = s.slab[1:], s.outs[nOut:], s.states[nStates:]
	if rows != nil {
		for i, it := range s.plan.items {
			if it.kind == aggNone {
				g.out[i] = rows[it.pos.bi][it.pos.ci]
			}
		}
	}
	s.groups = append(s.groups, g)
	return g
}

// groupOf finds or creates the group of a combined row.
func (s *aggSink) groupOf(rows [][]Value) *aggGroup {
	switch {
	case s.byValue != nil:
		pos := s.plan.group[0]
		v := rows[pos.bi][pos.ci]
		g := s.byValue[v]
		if g == nil {
			g = s.newGroup(rows)
			s.byValue[v] = g
		}
		return g
	case s.byKey != nil:
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
		g := s.byKey[string(s.key)]
		if g == nil {
			g = s.newGroup(rows)
			s.byKey[string(s.key)] = g
		}
		return g
	}
	if len(s.groups) == 0 {
		return s.newGroup(rows)
	}
	return s.groups[0]
}

func (s *aggSink) emit(rows [][]Value) {
	s.cost.sorted++ // GROUP BY is charged like a sort
	g := s.groupOf(rows)
	for _, it := range s.plan.items {
		switch {
		case it.kind == aggNone:
		case it.star:
			g.states[it.state].count++
		default:
			g.states[it.state].add(rows[it.pos.bi][it.pos.ci])
		}
	}
}

func (s *aggSink) finish() ([][]Value, error) {
	// SQL semantics: an ungrouped aggregate over an empty set still
	// yields one row (COUNT 0, SUM/AVG/MIN/MAX NULL, plain columns NULL).
	if len(s.groups) == 0 && len(s.plan.group) == 0 {
		s.newGroup(nil)
	}
	for _, g := range s.groups {
		for i, it := range s.plan.items {
			if it.kind != aggNone {
				g.out[i] = g.states[it.state].result(it.kind)
			}
		}
	}
	keys := s.plan.sortKeys
	if len(keys) == 0 {
		out := make([][]Value, len(s.groups))
		for i, g := range s.groups {
			out[i] = g.out
		}
		return out, nil
	}
	// Aggregated queries order by output columns, including aggregate
	// aliases (ORDER BY qty DESC).
	top := newTopK(keys, s.plan.keep())
	s.cost.sorted += len(s.groups)
	for _, g := range s.groups {
		for i, k := range keys {
			top.cand[i] = g.out[k.out]
		}
		if top.offer() {
			top.hold(g.out)
		}
	}
	return top.sorted(len(s.plan.items))
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
