package sqldb

import (
	"fmt"
	"strings"
	"time"
)

// This file is the planning layer of the SELECT pipeline. The layering
// is:
//
//	parser.go / ast.go   — SQL text -> logical statement tree
//	plan.go  (this file) — logical tree -> physical selectPlan: one
//	                       access path per driving table plus a join
//	                       strategy per joined table, chosen by cost
//	                       from table/index statistics
//	operators.go         — physical plan -> rows, through composable
//	                       operators (scan, index lookup/range/order,
//	                       filter, joins, aggregate, sort, limit)
//
// Plans are built once at prepare time and cached with the statement
// (keyed by the index epoch, see stmtcache.go); placeholder values are
// not known at plan time, so selectivity estimates use index statistics
// and the operators re-resolve bound values at execution.
//
// A plan carries everything that does not depend on the arguments: the
// resolved tables and their lock order, the WHERE conjuncts compiled to
// closures and split by join depth, the source position of every output
// column ('*' expanded), the output names, the ORDER BY / GROUP BY /
// aggregate-argument positions. Tables are never dropped, so a plan may
// hold *table; index availability changes bump the epoch and replan.
// What is left per execution is the argument vector, the table views at
// the statement's snapshot, and the lock or pin.

// pathKind enumerates the physical access paths for one table.
type pathKind int

const (
	// pathScan visits every slot of the table.
	pathScan pathKind = iota
	// pathPK resolves one row through the primary-key map.
	pathPK
	// pathIndexEq probes a secondary (hash or ordered) index bucket.
	pathIndexEq
	// pathIndexRange walks an ordered index between two bounds.
	pathIndexRange
	// pathIndexOrder walks an ordered index in ORDER BY order, stopping
	// early once LIMIT+OFFSET filtered rows are in hand.
	pathIndexOrder
)

// rangeBound is one side of an index range: the bound operand and
// whether the comparison excludes equality (">"/"<" vs ">="/"<=").
type rangeBound struct {
	rhs  operand
	excl bool
}

// accessPath is the planner's decision for producing one table's
// candidate rows. Operand values (placeholders) are resolved at
// execution; the operators re-check every predicate against the visible
// row, so a path is a narrowing hint, never a source of truth.
type accessPath struct {
	kind    pathKind
	colName string      // indexed column (all but pathScan)
	eq      operand     // pathPK, pathIndexEq
	lo, hi  *rangeBound // pathIndexRange
	desc    bool        // pathIndexOrder direction
	stop    int         // pathIndexOrder early-stop row count (limit+offset)
	estCost time.Duration
}

// joinPlan pre-resolves one join: which column of the newly joined table
// matches which already-visible column.
type joinPlan struct {
	innerCol  int    // column index in the inner (new) table
	innerName string // column name, for index lookup
	outerRef  colRef
	outerBi   int // resolved outer column position
	outerCi   int
}

func colBelongsTo(b binding, ref colRef) bool {
	if ref.Table != "" {
		return ref.Table == b.ref.name()
	}
	return b.tbl.schema.colIndex(ref.Column) >= 0
}

// joinStep is the resolved strategy for one INNER JOIN: the join-column
// plumbing plus whether the inner side is driven through an index
// (index-nested-loop) or a rescan (nested-loop).
type joinStep struct {
	joinPlan
	indexed    bool
	innerPK    bool   // the join column is the inner table's primary key
	innerTable string // inner binding's display name, for EXPLAIN
}

// colPos addresses one column of a combined (joined) row: binding
// index, column index.
type colPos struct{ bi, ci int }

// outItem is the compiled form of one output column. In a plain SELECT
// every item copies pos. In an aggregated SELECT an item with kind
// aggNone copies pos from its group's first row, and an aggregate item
// folds pos (or counts rows, star) into aggregate state number state.
type outItem struct {
	kind  aggKind
	star  bool
	pos   colPos
	state int
}

// sortKey is one compiled ORDER BY key: where to read it in a row handed
// to the ordered sink (in), and where it sits in the row the sink keeps
// (out) — an output column, or a hidden column appended after them when
// the key is not projected.
type sortKey struct {
	in   colPos
	out  int
	desc bool
}

// selectPlan is the physical plan for one SELECT.
type selectPlan struct {
	outerName string // driving table's display name
	outer     accessPath
	joins     []joinStep

	where        boolExpr // residual filter (the full WHERE; re-checked)
	hasAgg       bool
	groupBy      []colRef
	orderBy      []orderKey
	orderByIndex bool // outer path delivers ORDER BY order; no sort
	limit        int  // -1 when absent
	offset       int

	// Compiled at prepare time; read-only afterwards and shared by every
	// execution of the cached statement.
	bindings     []binding
	locks        []*table         // distinct tables in name order (lock engine)
	preds        [][]compiledPred // WHERE conjuncts by the join depth they run at
	codedPreds   int              // coded conjuncts among them (compiledPred.coded)
	columns      []string         // output column names
	items        []outItem        // one per output column
	aggStates    int              // aggregate items among them
	group        []colPos         // GROUP BY columns
	groupByValue bool             // single Int/String/Bool group column: key by its Value
	sortKeys     []sortKey        // ORDER BY keys
	hidden       []colPos         // sort columns that are not projected
}

// aggregated reports whether the SELECT groups or aggregates.
func (p *selectPlan) aggregated() bool { return p.hasAgg || len(p.groupBy) > 0 }

// keep is the number of leading rows of the ordered (or index-ordered)
// result the statement can return: LIMIT+OFFSET, or -1 for all.
func (p *selectPlan) keep() int {
	if p.limit < 0 {
		return -1
	}
	return p.limit + p.offset
}

// planSelect chooses the physical plan for a parsed SELECT: join
// strategies for every joined table and a cost-ranked access path for
// the driving table.
func (db *DB) planSelect(s *selectStmt) (*selectPlan, error) {
	bindings, err := db.resolveBindings(s)
	if err != nil {
		return nil, err
	}
	p := &selectPlan{
		outerName: bindings[0].ref.name(),
		where:     s.Where,
		hasAgg:    planHasAgg(s),
		groupBy:   s.GroupBy,
		orderBy:   s.OrderBy,
		limit:     s.Limit,
		offset:    s.Offset,
		bindings:  bindings,
		locks:     lockSet(bindings),
	}
	// Resolve join sides: joins[i] extends binding i+1.
	p.joins = make([]joinStep, len(s.Joins))
	for i, j := range s.Joins {
		inner := bindings[i+1]
		visible := bindings[:i+1]
		lInner := colBelongsTo(inner, j.LCol)
		rInner := colBelongsTo(inner, j.RCol)
		var jp joinPlan
		switch {
		case lInner && !rInner:
			jp = joinPlan{innerCol: inner.tbl.schema.colIndex(j.LCol.Column), innerName: j.LCol.Column, outerRef: j.RCol}
		case rInner && !lInner:
			jp = joinPlan{innerCol: inner.tbl.schema.colIndex(j.RCol.Column), innerName: j.RCol.Column, outerRef: j.LCol}
		default:
			return nil, fmt.Errorf("sqldb: join ON must relate %q to an earlier table", inner.ref.name())
		}
		if jp.innerCol < 0 {
			return nil, fmt.Errorf("sqldb: table %q has no column %q", inner.ref.name(), jp.innerName)
		}
		bi, ci, err := resolveCol(visible, jp.outerRef)
		if err != nil {
			return nil, fmt.Errorf("sqldb: join outer column: %w", err)
		}
		jp.outerBi, jp.outerCi = bi, ci
		p.joins[i] = joinStep{
			joinPlan:   jp,
			indexed:    inner.tbl.hasIndex(jp.innerName),
			innerPK:    inner.tbl.pkCol == jp.innerCol,
			innerTable: inner.ref.name(),
		}
	}
	p.outer = db.chooseAccessPath(s, bindings)
	p.orderByIndex = p.outer.kind == pathIndexOrder
	if p.preds, err = compileWhere(s.Where, bindings, &p.codedPreds); err != nil {
		return nil, err
	}
	if err := p.compileOutput(s); err != nil {
		return nil, err
	}
	return p, nil
}

// compileOutput resolves the projection, GROUP BY and ORDER BY against
// the bindings: output names, the source position of every output
// column, aggregate arguments, and the sort keys.
func (p *selectPlan) compileOutput(s *selectStmt) error {
	for _, it := range s.Items {
		switch {
		case it.Star:
			if p.aggregated() {
				return fmt.Errorf("sqldb: SELECT * cannot be combined with aggregates")
			}
			for bi, b := range p.bindings {
				if it.Table != "" && b.ref.name() != it.Table {
					continue
				}
				for ci, c := range b.tbl.schema.Columns {
					p.columns = append(p.columns, c.Name)
					p.items = append(p.items, outItem{pos: colPos{bi, ci}})
				}
			}
		case it.Agg != aggNone:
			item := outItem{kind: it.Agg, star: it.AggStar, state: p.aggStates}
			if !it.AggStar {
				bi, ci, err := resolveCol(p.bindings, it.AggCol)
				if err != nil {
					return err
				}
				item.pos = colPos{bi, ci}
			}
			p.aggStates++
			p.columns = append(p.columns, aggOutputName(it))
			p.items = append(p.items, item)
		default:
			bi, ci, err := resolveCol(p.bindings, it.Col)
			if err != nil {
				return err
			}
			name := it.Col.Column
			if it.Alias != "" {
				name = it.Alias
			}
			p.columns = append(p.columns, name)
			p.items = append(p.items, outItem{pos: colPos{bi, ci}})
		}
	}
	for _, g := range s.GroupBy {
		bi, ci, err := resolveCol(p.bindings, g)
		if err != nil {
			return err
		}
		p.group = append(p.group, colPos{bi, ci})
	}
	if len(p.group) == 1 {
		// One group column of a type whose values are their own identity
		// keys the groups directly. Float and Time columns keep the
		// formatted key (1 and 1.0, or two instants in one second, are one
		// group there), as does a multi-column GROUP BY.
		switch g := p.group[0]; p.bindings[g.bi].tbl.schema.Columns[g.ci].Type {
		case Int, String, Bool:
			p.groupByValue = true
		}
	}
	return p.compileOrder(s.OrderBy)
}

// compileOrder resolves the ORDER BY keys. An aggregated SELECT orders
// its output rows, so keys name output columns (aggregate aliases
// included). A plain SELECT may order by any table column, projected or
// not; if some key is not a table column, every key is looked up among
// the output names instead (an alias), and resolves to the column that
// output copies. Either way a plain key ends up as a position in the
// combined row, so the ordered sink can test a row against its current
// worst before projecting it.
func (p *selectPlan) compileOrder(keys []orderKey) error {
	if len(keys) == 0 {
		return nil
	}
	outputIndex := func(k orderKey) (int, error) {
		for i, c := range p.columns {
			if c == k.Ref.Column {
				return i, nil
			}
		}
		return 0, fmt.Errorf("sqldb: ORDER BY column %q is not in the result; project it", k.Ref.Column)
	}
	p.sortKeys = make([]sortKey, len(keys))
	if p.aggregated() {
		for i, k := range keys {
			idx, err := outputIndex(k)
			if err != nil {
				return err
			}
			p.sortKeys[i] = sortKey{in: colPos{0, idx}, out: idx, desc: k.Desc}
		}
		return nil
	}
	tableCols := true
	for i, k := range keys {
		bi, ci, err := resolveCol(p.bindings, k.Ref)
		if err != nil {
			tableCols = false
			break
		}
		p.sortKeys[i] = sortKey{in: colPos{bi, ci}, desc: k.Desc}
	}
	if !tableCols {
		for i, k := range keys {
			idx, err := outputIndex(k)
			if err != nil {
				return err
			}
			p.sortKeys[i] = sortKey{in: p.items[idx].pos, desc: k.Desc}
		}
	}
	for i := range p.sortKeys {
		k := &p.sortKeys[i]
		k.out = -1
		for j, it := range p.items {
			if it.pos == k.in {
				k.out = j
				break
			}
		}
		if k.out < 0 {
			k.out = len(p.items) + len(p.hidden)
			p.hidden = append(p.hidden, k.in)
		}
	}
	return nil
}

func aggOutputName(it selectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	var fn string
	switch it.Agg {
	case aggCount:
		fn = "count"
	case aggSum:
		fn = "sum"
	case aggAvg:
		fn = "avg"
	case aggMin:
		fn = "min"
	case aggMax:
		fn = "max"
	}
	if it.AggStar {
		return fn
	}
	return fn + "_" + it.AggCol.Column
}

// sargable predicates: AND-connected "col OP row-independent-value"
// conjuncts usable by an index on the driving table.
type sarg struct {
	col colRef
	op  string
	rhs operand
}

// collectSargs walks AND-connected conjuncts for comparisons between a
// column of binding bi and a literal or placeholder.
func collectSargs(e boolExpr, bindings []binding, bi int, out []sarg) []sarg {
	switch t := e.(type) {
	case andExpr:
		out = collectSargs(t.L, bindings, bi, out)
		return collectSargs(t.R, bindings, bi, out)
	case cmpExpr:
		if !t.Rhs.IsLit && !t.Rhs.IsPlacehold {
			return out
		}
		gotBi, _, err := resolveCol(bindings, t.Col)
		if err != nil || gotBi != bi {
			return out
		}
		switch t.Op {
		case "=", "<", "<=", ">", ">=":
			return append(out, sarg{col: t.Col, op: t.Op, rhs: t.Rhs})
		}
	}
	return out
}

// predPaths lists the WHERE-driven access paths of the driving table, in
// the order cheapestPath considers them (a cost tie goes to the later
// one). Which columns are indexed only changes with the index epoch, so
// the list is fixed for a cached statement. Shared by SELECT planning
// and DML read phases.
func predPaths(where boolExpr, bindings []binding) []accessPath {
	if where == nil {
		return nil
	}
	b := bindings[0]
	sargs := collectSargs(where, bindings, 0, nil)
	var out []accessPath

	// Equality candidates: primary key, then secondary indexes.
	pkName := ""
	if b.tbl.pkCol >= 0 {
		pkName = b.tbl.schema.Columns[b.tbl.pkCol].Name
	}
	for _, sg := range sargs {
		if sg.op != "=" {
			continue
		}
		col := sg.col.Column
		if col == pkName {
			out = append(out, accessPath{kind: pathPK, colName: col, eq: sg.rhs})
			continue
		}
		if b.tbl.hasIndex(col) {
			out = append(out, accessPath{kind: pathIndexEq, colName: col, eq: sg.rhs})
		}
	}

	// Range candidates: lo/hi bounds on one ordered-indexed column.
	first := len(out)
	for _, sg := range sargs {
		if sg.op == "=" {
			continue
		}
		col := sg.col.Column
		if !b.tbl.hasOrdered(col) {
			continue
		}
		var rp *accessPath
		for i := first; i < len(out); i++ {
			if out[i].colName == col {
				rp = &out[i]
			}
		}
		if rp == nil {
			out = append(out, accessPath{kind: pathIndexRange, colName: col})
			rp = &out[len(out)-1]
		}
		bound := &rangeBound{rhs: sg.rhs, excl: sg.op == ">" || sg.op == "<"}
		if sg.op == ">" || sg.op == ">=" {
			if rp.lo == nil {
				rp.lo = bound
			}
		} else {
			if rp.hi == nil {
				rp.hi = bound
			}
		}
	}
	return out
}

// cheapestPath prices the candidates against the full scan with the
// table's current statistics and returns the cheapest. Candidates are
// priced with the same CostModel terms execution charges: scans pay
// PerRowScanned per slot, index paths pay PerIndexProbe per entry
// visited — so the planner's preference is exactly the latency the
// statement would feel. It allocates nothing: DML read phases call it on
// every execution.
func (db *DB) cheapestPath(tbl *table, cands []accessPath) accessPath {
	rows := float64(tbl.live.Load())
	perProbe := float64(db.cost.PerIndexProbe)
	best := accessPath{kind: pathScan, estCost: time.Duration(rows * float64(db.cost.PerRowScanned))}
	for _, p := range cands {
		switch p.kind {
		case pathPK:
			p.estCost = time.Duration(2 * perProbe)
		case pathIndexEq:
			est := rows
			if d := tbl.distinct(p.colName); d > 0 {
				est = rows / float64(d)
			}
			p.estCost = time.Duration((1 + est) * perProbe)
		case pathIndexRange:
			sel := 1.0 / 3
			if p.lo != nil && p.hi != nil {
				sel = 1.0 / 4
			}
			p.estCost = time.Duration((1 + rows*sel) * perProbe)
		}
		// At-most-as-expensive with scan seeded first: on a cost tie (for
		// example under ZeroCostModel) the index path wins because it is
		// considered only when no more expensive than the incumbent.
		if p.estCost <= best.estCost {
			best = p
		}
	}
	return best
}

// chooseAccessPath picks the driving table's access path for a SELECT:
// the cheapest WHERE-driven path, challenged by the index-order path
// when the query shape admits one.
func (db *DB) chooseAccessPath(s *selectStmt, bindings []binding) accessPath {
	b := bindings[0]
	best := db.cheapestPath(b.tbl, predPaths(s.Where, bindings))

	// Index-order candidate: a single-key ORDER BY on an ordered-indexed
	// column of a join-free, aggregate-free SELECT with a LIMIT — the
	// operator walks the index in order and stops once LIMIT+OFFSET
	// filtered rows are in hand.
	if len(s.Joins) == 0 && !planHasAgg(s) && len(s.GroupBy) == 0 &&
		len(s.OrderBy) == 1 && s.Limit >= 0 {
		key := s.OrderBy[0]
		if kbi, _, err := resolveCol(bindings, key.Ref); err == nil && kbi == 0 &&
			b.tbl.hasOrdered(key.Ref.Column) {
			rows := float64(b.tbl.live.Load())
			visited := float64(s.Limit + s.Offset)
			if s.Where != nil {
				// A residual filter delays the early stop; assume it
				// passes half the rows, capped by the table itself.
				visited = min(rows, 2*visited+float64(s.Limit+s.Offset))
				visited = max(visited, rows/2)
			}
			cand := accessPath{
				kind: pathIndexOrder, colName: key.Ref.Column,
				desc: key.Desc, stop: s.Limit + s.Offset,
				estCost: time.Duration((1 + visited) * float64(db.cost.PerIndexProbe)),
			}
			// The index-order path also saves the sort the WHERE-driven
			// paths would pay; credit it when comparing. At-most-as-expensive,
			// like consider: on a cost tie (ZeroCostModel) the index wins.
			sortSaved := time.Duration(rows * float64(db.cost.PerSortRow))
			if cand.estCost <= best.estCost+sortSaved {
				best = cand
			}
		}
	}
	return best
}

func planHasAgg(s *selectStmt) bool {
	for _, it := range s.Items {
		if it.Agg != aggNone {
			return true
		}
	}
	return false
}

// ---- EXPLAIN rendering ----

// resultSet renders the plan as an EXPLAIN result: one operator per
// row, access path first, then joins, filter, aggregate, sort, limit.
func (p *selectPlan) resultSet() *ResultSet {
	lines := p.lines()
	rs := &ResultSet{Columns: []string{"plan"}, Rows: make([][]Value, len(lines))}
	for i, l := range lines {
		rs.Rows[i] = []Value{l}
	}
	return rs
}

func (p *selectPlan) lines() []string {
	var out []string
	qual := func(col string) string { return p.outerName + "." + col }
	switch p.outer.kind {
	case pathScan:
		out = append(out, fmt.Sprintf("Scan(%s)", p.outerName))
	case pathPK:
		out = append(out, fmt.Sprintf("PKLookup(%s = %s)", qual(p.outer.colName), renderOperand(p.outer.eq)))
	case pathIndexEq:
		out = append(out, fmt.Sprintf("IndexLookup(%s = %s)", qual(p.outer.colName), renderOperand(p.outer.eq)))
	case pathIndexRange:
		var bounds []string
		if lo := p.outer.lo; lo != nil {
			op := ">="
			if lo.excl {
				op = ">"
			}
			bounds = append(bounds, fmt.Sprintf("%s %s %s", qual(p.outer.colName), op, renderOperand(lo.rhs)))
		}
		if hi := p.outer.hi; hi != nil {
			op := "<="
			if hi.excl {
				op = "<"
			}
			bounds = append(bounds, fmt.Sprintf("%s %s %s", qual(p.outer.colName), op, renderOperand(hi.rhs)))
		}
		out = append(out, fmt.Sprintf("IndexRange(%s)", strings.Join(bounds, " and ")))
	case pathIndexOrder:
		dir := "asc"
		if p.outer.desc {
			dir = "desc"
		}
		out = append(out, fmt.Sprintf("IndexOrder(%s %s)", qual(p.outer.colName), dir))
	}
	for _, j := range p.joins {
		op := "NestedJoin"
		if j.indexed {
			op = "IndexJoin"
		}
		out = append(out, fmt.Sprintf("%s(%s.%s = %s)", op, j.innerTable, j.innerName, j.outerRef))
	}
	if p.where != nil {
		out = append(out, fmt.Sprintf("Filter(%s)", renderBool(p.where)))
	}
	if p.hasAgg || len(p.groupBy) > 0 {
		var keys []string
		for _, g := range p.groupBy {
			keys = append(keys, g.String())
		}
		if len(keys) > 0 {
			out = append(out, fmt.Sprintf("Aggregate(group by %s)", strings.Join(keys, ", ")))
		} else {
			out = append(out, "Aggregate()")
		}
	}
	if len(p.orderBy) > 0 && !p.orderByIndex {
		var keys []string
		for _, k := range p.orderBy {
			dir := "asc"
			if k.Desc {
				dir = "desc"
			}
			keys = append(keys, k.Ref.String()+" "+dir)
		}
		out = append(out, fmt.Sprintf("Sort(%s)", strings.Join(keys, ", ")))
	}
	if p.limit >= 0 || p.offset > 0 {
		if p.offset > 0 {
			out = append(out, fmt.Sprintf("Limit(%d offset %d)", p.limit, p.offset))
		} else {
			out = append(out, fmt.Sprintf("Limit(%d)", p.limit))
		}
	}
	return out
}

// renderOperand prints an expression leaf for EXPLAIN output.
func renderOperand(op operand) string {
	switch {
	case op.IsPlacehold:
		return "?"
	case op.IsLit:
		if _, isStr := op.Lit.(string); isStr {
			return "'" + op.Lit.(string) + "'"
		}
		return FormatValue(op.Lit)
	default:
		return op.Col.String()
	}
}

// renderBool prints a predicate tree for EXPLAIN output.
func renderBool(e boolExpr) string {
	switch t := e.(type) {
	case andExpr:
		return renderBool(t.L) + " and " + renderBool(t.R)
	case orExpr:
		return "(" + renderBool(t.L) + " or " + renderBool(t.R) + ")"
	case notExpr:
		return "not (" + renderBool(t.E) + ")"
	case cmpExpr:
		return fmt.Sprintf("%s %s %s", t.Col, t.Op, renderOperand(t.Rhs))
	case likeExpr:
		op := "like"
		if t.Neg {
			op = "not like"
		}
		return fmt.Sprintf("%s %s %s", t.Col, op, renderOperand(t.Rhs))
	case inExpr:
		var vals []string
		for _, o := range t.Set {
			vals = append(vals, renderOperand(o))
		}
		op := "in"
		if t.Neg {
			op = "not in"
		}
		return fmt.Sprintf("%s %s (%s)", t.Col, op, strings.Join(vals, ", "))
	case nullExpr:
		if t.Neg {
			return fmt.Sprintf("%s is not null", t.Col)
		}
		return fmt.Sprintf("%s is null", t.Col)
	default:
		return fmt.Sprintf("%T", e)
	}
}
