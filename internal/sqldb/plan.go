package sqldb

import (
	"fmt"
	"slices"
	"strings"
)

// This file is the planning layer of the SELECT pipeline. The layering
// is:
//
//	parser.go / ast.go   — SQL text -> logical statement tree
//	plan.go  (this file) — logical tree -> physical selectPlan: one
//	                       access path for the driving table, chosen by
//	                       a fixed rule (pathFor), plus a primary-key
//	                       probe per joined table
//	operators.go         — physical plan -> rows, through composable
//	                       operators (scan, index lookup/range, filter,
//	                       joins, group, sort, limit)
//
// Plans are built once at prepare time and cached with the statement
// (keyed by the index epoch, see stmtcache.go). The rule reads only
// which columns are indexed, never how many rows a table holds, so a
// plan does not depend on when it was prepared; the operators resolve
// bound values at execution.
//
// A plan carries everything that does not depend on the arguments: the
// resolved tables and their lock order, the WHERE conjuncts compiled to
// closures and split by join depth, the source position of every output
// column ('*' expanded), the output names, the ORDER BY / GROUP BY / SUM
// positions. Tables are never dropped, so a plan may hold *table; index
// availability changes bump the epoch and replan.
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
	// pathIndexRange walks an ordered index above an exclusive lower
	// bound (col > v).
	pathIndexRange
)

// accessPath is the planner's decision for producing one table's
// candidate rows. Operand values (placeholders) are resolved at
// execution; the operators re-check every predicate against the visible
// row, so a path is a narrowing hint, never a source of truth.
type accessPath struct {
	kind    pathKind
	colName string  // indexed column (all but pathScan)
	val     operand // pathPK, pathIndexEq: the key; pathIndexRange: the lower bound
}

// joinStep is one JOIN: the newly joined (inner) table is probed through
// its primary key with the value of an already-visible column.
type joinStep struct {
	innerName string // the inner table's primary key, for EXPLAIN
	outerName string // the visible column, for EXPLAIN
	outer     colPos // the visible column's position
	table     string // the inner table, for EXPLAIN

	// Where the step reads its key (selectRun.outerKey): the outer row's
	// version's key, or its int slot outerSlot (-1 for none).
	outerPK   bool
	outerSlot int8
}

// colPos addresses one column of a combined (joined) row: binding
// index, column index.
type colPos struct{ bi, ci int }

// outItem is the compiled form of one output column. In a plain SELECT
// every item copies pos. In a grouped SELECT a plain item copies pos from
// its group's first row, and a SUM item folds pos into its group's sum
// number state.
type outItem struct {
	sum   bool
	pos   colPos
	state int
}

// sortKey is one compiled ORDER BY key: where to read it in a row handed
// to the ordered sink (in), and which output column it is (out).
type sortKey struct {
	in   colPos
	out  int
	desc bool
}

// selectPlan is the physical plan for one SELECT.
type selectPlan struct {
	outer accessPath
	joins []joinStep

	where   []pred // for EXPLAIN; the compiled form is preds
	groupBy string
	orderBy []orderKey
	limit   int // -1 when absent

	// Compiled at prepare time; read-only afterwards and shared by every
	// execution of the cached statement.
	bindings   []binding
	locks      []*table         // distinct tables in name order (lock engine)
	preds      [][]compiledPred // WHERE conjuncts by the join depth they run at
	codedPreds int              // coded conjuncts among them (compiledPred.coded)
	columns    []string         // output column names
	items      []outItem        // one per output column
	sums       int              // SUM items among them
	group      colPos           // the GROUP BY column
	sortKeys   []sortKey        // ORDER BY keys
}

// grouped reports whether the SELECT has a GROUP BY.
func (p *selectPlan) grouped() bool { return p.groupBy != "" }

// planSelect builds the physical plan for a parsed SELECT: a primary-key
// probe for every joined table and the rule's access path for the
// driving table. A JOIN on a column that is not the inner table's
// primary key fails here.
func (db *DB) planSelect(s *selectStmt) (*selectPlan, error) {
	bindings, err := db.resolveBindings(s)
	if err != nil {
		return nil, err
	}
	p := &selectPlan{
		where:    s.Where,
		groupBy:  s.GroupBy,
		orderBy:  s.OrderBy,
		limit:    s.Limit,
		bindings: bindings,
		locks:    lockSet(bindings),
	}
	// Resolve join sides: joins[i] extends binding i+1.
	p.joins = make([]joinStep, len(s.Joins))
	for i, j := range s.Joins {
		inner := bindings[i+1].tbl
		innerName, outerName := j.LCol, j.RCol
		if inner.schema.colIndex(innerName) < 0 {
			innerName, outerName = outerName, innerName
		}
		innerCol := inner.schema.colIndex(innerName)
		if innerCol < 0 || inner.schema.colIndex(outerName) >= 0 {
			return nil, fmt.Errorf("sqldb: join ON must relate %q to an earlier table", inner.schema.Table)
		}
		if innerCol != inner.pkCol {
			return nil, fmt.Errorf("sqldb: JOIN %s ON %s.%s: a join must be on the joined table's primary key",
				inner.schema.Table, inner.schema.Table, innerName)
		}
		bi, ci, err := resolveCol(bindings[:i+1], outerName)
		if err != nil {
			return nil, fmt.Errorf("sqldb: join outer column: %w", err)
		}
		outer := bindings[bi].tbl
		p.joins[i] = joinStep{
			innerName: innerName,
			outerName: outerName,
			outer:     colPos{bi, ci},
			table:     inner.schema.Table,
			outerPK:   outer.pkCol == ci,
			outerSlot: outer.intSlot(ci),
		}
	}
	p.outer = pathFor(s.Where, bindings)
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
// column, SUM arguments, and the sort keys.
func (p *selectPlan) compileOutput(s *selectStmt) error {
	for _, it := range s.Items {
		switch {
		case it.Star:
			if p.grouped() {
				return fmt.Errorf("sqldb: SELECT * cannot be combined with GROUP BY")
			}
			for bi, b := range p.bindings {
				for ci, c := range b.tbl.schema.Columns {
					p.columns = append(p.columns, c.Name)
					p.items = append(p.items, outItem{pos: colPos{bi, ci}})
				}
			}
		default:
			bi, ci, err := resolveCol(p.bindings, it.Col)
			if err != nil {
				return err
			}
			item := outItem{pos: colPos{bi, ci}}
			name := it.Col
			if it.Sum {
				item.sum, item.state, name = true, p.sums, it.Alias
				p.sums++
			}
			p.columns = append(p.columns, name)
			p.items = append(p.items, item)
		}
	}
	if p.grouped() {
		bi, ci, err := resolveCol(p.bindings, s.GroupBy)
		if err != nil {
			return err
		}
		// Groups are keyed by the column's value, which is its own
		// identity for these two types only.
		if t := p.bindings[bi].tbl.schema.Columns[ci].Type; t != Int && t != String {
			return fmt.Errorf("sqldb: GROUP BY %s: a %s column does not group, only INT and STRING do", s.GroupBy, t)
		}
		p.group = colPos{bi, ci}
	}
	// ORDER BY keys name output columns (SUM aliases included). A plain
	// key is read from the combined row, so the ordered sink can test a
	// row against its current worst before projecting it; a grouped one
	// from the group's output row.
	p.sortKeys = make([]sortKey, len(s.OrderBy))
	for i, k := range s.OrderBy {
		idx := slices.Index(p.columns, k.Col)
		if idx < 0 {
			return fmt.Errorf("sqldb: ORDER BY column %q is not in the result; project it", k.Col)
		}
		in := p.items[idx].pos
		if p.grouped() {
			in = colPos{0, idx}
		}
		p.sortKeys[i] = sortKey{in: in, out: idx, desc: k.Desc}
	}
	return nil
}

// pathFor is the driving table's access path, by a fixed rule: a
// "col = v" conjunct on the primary key gives the primary-key lookup;
// else the first "col = v" on a secondary-indexed column, in WHERE order,
// the index lookup; else the first "col > v" on an ordered-indexed
// column, the index range; else the scan. Which columns are indexed only
// changes with the index epoch, so the path is fixed for a cached
// statement. Shared by SELECT planning and DML read phases.
func pathFor(where []pred, bindings []binding) accessPath {
	tbl := bindings[0].tbl
	var eq, gt *pred
	for i := range where {
		w := &where[i]
		bi, ci, err := resolveCol(bindings, w.Col)
		if err != nil || bi != 0 {
			continue
		}
		switch {
		case w.Op == opEq && ci == tbl.pkCol:
			return accessPath{kind: pathPK, colName: w.Col, val: w.Rhs}
		case w.Op == opEq && eq == nil && tbl.hasIndex(w.Col):
			eq = w
		case w.Op == opGt && gt == nil && tbl.hasOrdered(w.Col):
			gt = w
		}
	}
	switch {
	case eq != nil:
		return accessPath{kind: pathIndexEq, colName: eq.Col, val: eq.Rhs}
	case gt != nil:
		return accessPath{kind: pathIndexRange, colName: gt.Col, val: gt.Rhs}
	}
	return accessPath{kind: pathScan}
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
	outer := p.bindings[0].tbl.schema.Table
	col := outer + "." + p.outer.colName
	switch p.outer.kind {
	case pathScan:
		out = append(out, fmt.Sprintf("Scan(%s)", outer))
	case pathPK:
		out = append(out, fmt.Sprintf("PKLookup(%s = %s)", col, renderOperand(p.outer.val)))
	case pathIndexEq:
		out = append(out, fmt.Sprintf("IndexLookup(%s = %s)", col, renderOperand(p.outer.val)))
	case pathIndexRange:
		out = append(out, fmt.Sprintf("IndexRange(%s > %s)", col, renderOperand(p.outer.val)))
	}
	for _, j := range p.joins {
		out = append(out, fmt.Sprintf("IndexJoin(%s.%s = %s)", j.table, j.innerName, j.outerName))
	}
	if len(p.where) > 0 {
		conds := make([]string, len(p.where))
		for i, w := range p.where {
			conds[i] = fmt.Sprintf("%s %s %s", w.Col, strings.ToLower(cmpOps[w.Op]), renderOperand(w.Rhs))
		}
		out = append(out, fmt.Sprintf("Filter(%s)", strings.Join(conds, " and ")))
	}
	if p.grouped() {
		out = append(out, fmt.Sprintf("Aggregate(group by %s)", p.groupBy))
	}
	if len(p.orderBy) > 0 {
		keys := make([]string, len(p.orderBy))
		for i, k := range p.orderBy {
			keys[i] = k.Col + " " + direction(k.Desc)
		}
		out = append(out, fmt.Sprintf("Sort(%s)", strings.Join(keys, ", ")))
	}
	if p.limit >= 0 {
		out = append(out, fmt.Sprintf("Limit(%d)", p.limit))
	}
	return out
}

func direction(desc bool) string {
	if desc {
		return "desc"
	}
	return "asc"
}

// renderOperand prints an operand for EXPLAIN output.
func renderOperand(op operand) string {
	if op.IsPlacehold {
		return "?"
	}
	if s, isStr := op.Lit.(string); isStr {
		return "'" + s + "'"
	}
	return FormatValue(op.Lit)
}
