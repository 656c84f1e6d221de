package sqldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// Executor equivalence: the streaming executor (sinks, bounded stable
// top-K, allocation-free probes) must return, row for row and ties
// included, what the textbook pipeline returns — materialise every
// matched combination in arrival order, sort.SliceStable it, slice it.
// The test generates seeded random statements over three small tables
// with deliberately duplicated sort keys and NULLs, computes that
// reference itself, and compares it with Conn.Query under both engines,
// with and without the extra indexes.
//
// Arrival order is the one thing the reference has to take from the
// engine: it asks EXPLAIN which access path drives the statement and
// models its order (slot order for scans and equality probes, (value,
// slot) order for ordered-index walks). Inner join sides always arrive
// in slot order here: the test only updates non-indexed columns.

// eqCol names one column of the test schema.
type eqCol struct {
	table, name string
	ti, ci      int // table ordinal in eqSchema, column ordinal
}

var eqSchema = []Schema{
	{Table: "t", PrimaryKey: "id", Indexes: []string{"grp"}, Columns: []Column{
		{Name: "id", Type: Int}, {Name: "a", Type: Int}, {Name: "b", Type: String},
		{Name: "c", Type: Float}, {Name: "grp", Type: Int}}},
	{Table: "u", PrimaryKey: "uid", Indexes: []string{"tid"}, Columns: []Column{
		{Name: "uid", Type: Int}, {Name: "tid", Type: Int}, {Name: "tag", Type: String}}},
	{Table: "w", PrimaryKey: "wid", Columns: []Column{
		{Name: "wid", Type: Int}, {Name: "wuid", Type: Int}, {Name: "n", Type: Int}}},
}

func eqColumn(name string) eqCol {
	for ti, s := range eqSchema {
		if ci := s.colIndex(name); ci >= 0 {
			return eqCol{table: s.Table, name: name, ti: ti, ci: ci}
		}
	}
	panic("no column " + name)
}

// eqData is the reference copy of the three tables, in slot order; a
// deleted row keeps its slot as nil.
type eqData [3][][]Value

var eqWords = []string{"alpha", "beta", "Beta", "gamma", "delta gamma", "x"}

func eqPopulate(t *testing.T, rng *rand.Rand, mvcc, extra bool) (*Conn, *eqData) {
	t.Helper()
	db := Open(Options{Cost: ZeroCostModel(), MVCC: mvcc})
	for _, s := range eqSchema {
		db.MustCreateTable(s)
	}
	c := db.Connect()
	t.Cleanup(c.Close)
	d := &eqData{}
	null := func(p float64, v Value) Value {
		if rng.Float64() < p {
			return nil
		}
		return v
	}
	insert := func(ti int, row []Value) {
		s := eqSchema[ti]
		names := make([]string, len(s.Columns))
		marks := make([]string, len(s.Columns))
		args := make([]any, len(row))
		for i, col := range s.Columns {
			names[i], marks[i], args[i] = col.Name, "?", row[i]
		}
		mustExec(t, c, fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)", s.Table, strings.Join(names, ", "), strings.Join(marks, ", ")), args...)
		d[ti] = append(d[ti], row)
	}
	for id := 1; id <= 120; id++ {
		insert(0, []Value{int64(id), null(0.1, int64(rng.Intn(12))), null(0.1, eqWords[rng.Intn(len(eqWords))]),
			float64(rng.Intn(5)) * 0.5, int64(rng.Intn(5))})
	}
	for id := 1; id <= 150; id++ {
		insert(1, []Value{int64(id), null(0.05, int64(1+rng.Intn(130))), eqWords[rng.Intn(4)]})
	}
	for id := 1; id <= 100; id++ {
		insert(2, []Value{int64(id), int64(1 + rng.Intn(160)), int64(rng.Intn(4))})
	}
	// Tombstones and stale versions: delete a tenth of every table, and
	// rewrite non-indexed columns of some survivors.
	for ti, s := range eqSchema {
		for slot := range d[ti] {
			switch {
			case rng.Intn(10) == 0:
				mustExec(t, c, fmt.Sprintf("DELETE FROM %s WHERE %s = ?", s.Table, s.PrimaryKey), d[ti][slot][0])
				d[ti][slot] = nil
			case ti == 0 && rng.Intn(4) == 0:
				v := float64(rng.Intn(5)) * 0.5
				mustExec(t, c, "UPDATE t SET c = ? WHERE id = ?", v, d[ti][slot][0])
				d[ti][slot][3] = v
			case ti == 2 && rng.Intn(4) == 0:
				v := int64(rng.Intn(4))
				mustExec(t, c, "UPDATE w SET n = ? WHERE wid = ?", v, d[ti][slot][0])
				d[ti][slot][2] = v
			}
		}
	}
	if extra {
		for _, ix := range []struct {
			table, col string
			ordered    bool
		}{{"t", "a", true}, {"w", "wuid", true}, {"u", "tag", false}} {
			if err := db.CreateIndex(ix.table, ix.col, ix.ordered); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c, d
}

// eqPred is a WHERE node the test can both render and evaluate. eval
// mirrors the engine's degraded three-valued logic (a comparison with
// NULL is false, and NOT of it is true).
type eqPred interface {
	render(args *[]any) string
	eval(rows [][]Value, pos map[string][2]int) bool
}

type eqCmp struct {
	col eqCol
	op  string
	val Value
	lit bool // render the value inline instead of as a placeholder
}

func (p eqCmp) render(args *[]any) string {
	if p.lit {
		if s, ok := p.val.(string); ok {
			return fmt.Sprintf("%s %s '%s'", p.col.name, p.op, s)
		}
		return fmt.Sprintf("%s %s %v", p.col.name, p.op, p.val)
	}
	*args = append(*args, p.val)
	return fmt.Sprintf("%s %s ?", p.col.name, p.op)
}

func (p eqCmp) eval(rows [][]Value, pos map[string][2]int) bool {
	at := pos[p.col.name]
	lhs := rows[at[0]][at[1]]
	if lhs == nil || p.val == nil {
		return false
	}
	c, err := compare(lhs, p.val)
	if err != nil {
		return false
	}
	switch p.op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	default:
		return c >= 0
	}
}

type eqLike struct {
	col eqCol
	pat string
	neg bool
}

func (p eqLike) render(args *[]any) string {
	*args = append(*args, p.pat)
	if p.neg {
		return p.col.name + " NOT LIKE ?"
	}
	return p.col.name + " LIKE ?"
}

func (p eqLike) eval(rows [][]Value, pos map[string][2]int) bool {
	at := pos[p.col.name]
	s, ok := rows[at[0]][at[1]].(string)
	if !ok {
		return false
	}
	return likeMatch(s, p.pat) != p.neg
}

type eqIn struct {
	col  eqCol
	vals []Value
	neg  bool
}

func (p eqIn) render(args *[]any) string {
	marks := make([]string, len(p.vals))
	for i, v := range p.vals {
		marks[i] = "?"
		*args = append(*args, v)
	}
	op := "IN"
	if p.neg {
		op = "NOT IN"
	}
	return fmt.Sprintf("%s %s (%s)", p.col.name, op, strings.Join(marks, ", "))
}

func (p eqIn) eval(rows [][]Value, pos map[string][2]int) bool {
	at := pos[p.col.name]
	for _, v := range p.vals {
		if valuesEqual(rows[at[0]][at[1]], v) {
			return !p.neg
		}
	}
	return p.neg
}

type eqNull struct {
	col eqCol
	neg bool
}

func (p eqNull) render(*[]any) string {
	if p.neg {
		return p.col.name + " IS NOT NULL"
	}
	return p.col.name + " IS NULL"
}

func (p eqNull) eval(rows [][]Value, pos map[string][2]int) bool {
	at := pos[p.col.name]
	return (rows[at[0]][at[1]] == nil) != p.neg
}

type eqBin struct {
	or   bool
	l, r eqPred
}

func (p eqBin) render(args *[]any) string {
	l := p.l.render(args)
	r := p.r.render(args)
	if p.or {
		return "(" + l + " OR " + r + ")"
	}
	return l + " AND " + r
}

func (p eqBin) eval(rows [][]Value, pos map[string][2]int) bool {
	if p.or {
		return p.l.eval(rows, pos) || p.r.eval(rows, pos)
	}
	return p.l.eval(rows, pos) && p.r.eval(rows, pos)
}

type eqNot struct{ e eqPred }

func (p eqNot) render(args *[]any) string { return "NOT (" + p.e.render(args) + ")" }
func (p eqNot) eval(rows [][]Value, pos map[string][2]int) bool {
	return !p.e.eval(rows, pos)
}

// eqShape is a FROM/JOIN skeleton: the tables in binding order and, for
// every joined table, its join column and the earlier column it equals.
type eqShape struct {
	from  string
	joins [][2]string // inner column, outer column
}

var eqShapes = []eqShape{
	{from: "t"},
	{from: "u"},
	{from: "u", joins: [][2]string{{"id", "tid"}}},                  // inner side by primary key
	{from: "t", joins: [][2]string{{"tid", "id"}}},                  // inner side by hash index, fan-out
	{from: "w", joins: [][2]string{{"uid", "wuid"}, {"id", "tid"}}}, // two primary-key hops
	{from: "t", joins: [][2]string{{"tid", "id"}, {"wuid", "uid"}}}, // hash, then rescan or ordered probe
	{from: "u", joins: [][2]string{{"wuid", "uid"}, {"id", "tid"}}}, // fan-out first
	{from: "w", joins: [][2]string{{"uid", "wuid"}}},                // w is the driving table
}

// eqQuery is one generated statement plus what the reference needs.
type eqQuery struct {
	shape   eqShape
	where   eqPred
	items   []string // rendered select items
	outCols []eqOut  // per output column: source column or aggregate
	groupBy []eqCol
	orderBy []eqOrder
	limit   int // -1: none
	offset  int
}

type eqOut struct {
	name string
	col  eqCol  // plain column, or the aggregate's argument
	agg  string // "", COUNT*, COUNT, SUM, AVG, MIN, MAX
}

type eqOrder struct {
	ref  string // as written in ORDER BY
	col  eqCol  // plain statements: the column it resolves to
	out  int    // aggregated statements: the output column
	desc bool
}

func (q *eqQuery) aggregated() bool {
	if len(q.groupBy) > 0 {
		return true
	}
	for _, o := range q.outCols {
		if o.agg != "" {
			return true
		}
	}
	return false
}

// tables lists the shape's tables, as eqSchema ordinals, in binding
// order.
func (s eqShape) tables() []int {
	var out []int
	for ti, sch := range eqSchema {
		if sch.Table == s.from {
			out = append(out, ti)
		}
	}
	for _, j := range s.joins {
		out = append(out, eqColumn(j[0]).ti)
	}
	return out
}

func (q *eqQuery) sql() (string, []any) {
	var args []any
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s FROM %s", strings.Join(q.items, ", "), q.shape.from)
	for _, j := range q.shape.joins {
		fmt.Fprintf(&b, " JOIN %s ON %s = %s", eqColumn(j[0]).table, j[0], j[1])
	}
	if q.where != nil {
		b.WriteString(" WHERE " + q.where.render(&args))
	}
	if len(q.groupBy) > 0 {
		names := make([]string, len(q.groupBy))
		for i, g := range q.groupBy {
			names[i] = g.name
		}
		b.WriteString(" GROUP BY " + strings.Join(names, ", "))
	}
	if len(q.orderBy) > 0 {
		keys := make([]string, len(q.orderBy))
		for i, k := range q.orderBy {
			keys[i] = k.ref
			if k.desc {
				keys[i] += " DESC"
			}
		}
		b.WriteString(" ORDER BY " + strings.Join(keys, ", "))
	}
	if q.limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.limit)
		if q.offset > 0 {
			fmt.Fprintf(&b, " OFFSET %d", q.offset)
		}
	}
	return b.String(), args
}

// eqGen draws random statements.
type eqGen struct {
	rng *rand.Rand
}

func (g *eqGen) pick(cols []eqCol) eqCol { return cols[g.rng.Intn(len(cols))] }

// value draws a comparison value of col's type from the populated range.
func (g *eqGen) value(col eqCol) Value {
	switch eqSchema[col.ti].Columns[col.ci].Type {
	case String:
		return eqWords[g.rng.Intn(len(eqWords))]
	case Float:
		return float64(g.rng.Intn(5)) * 0.5
	}
	switch col.name {
	case "id", "tid":
		return int64(1 + g.rng.Intn(130))
	case "uid", "wuid":
		return int64(1 + g.rng.Intn(160))
	case "wid":
		return int64(1 + g.rng.Intn(100))
	default:
		return int64(g.rng.Intn(12))
	}
}

func (g *eqGen) pred(cols []eqCol, depth int) eqPred {
	if depth > 0 && g.rng.Intn(3) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			return eqBin{or: true, l: g.pred(cols, depth-1), r: g.pred(cols, depth-1)}
		case 1:
			return eqBin{l: g.pred(cols, depth-1), r: g.pred(cols, depth-1)}
		default:
			return eqNot{g.pred(cols, depth-1)}
		}
	}
	col := g.pick(cols)
	isStr := eqSchema[col.ti].Columns[col.ci].Type == String
	switch k := g.rng.Intn(10); {
	case k < 5:
		ops := []string{"=", "=", "!=", "<", "<=", ">", ">="}
		return eqCmp{col: col, op: ops[g.rng.Intn(len(ops))], val: g.value(col), lit: g.rng.Intn(4) == 0}
	case k < 6 && isStr:
		pats := []string{"%a%", "b%", "%ta", "_eta", "%", "delta%gamma", "%x%"}
		return eqLike{col: col, pat: pats[g.rng.Intn(len(pats))], neg: g.rng.Intn(4) == 0}
	case k < 8:
		vals := make([]Value, 1+g.rng.Intn(3))
		for i := range vals {
			vals[i] = g.value(col)
		}
		return eqIn{col: col, vals: vals, neg: g.rng.Intn(4) == 0}
	case k < 9:
		return eqNull{col: col, neg: g.rng.Intn(2) == 0}
	default:
		// A bounded range on one column: the shape an ordered index serves.
		lo := g.value(col)
		return eqBin{l: eqCmp{col: col, op: ">=", val: lo}, r: eqCmp{col: col, op: "<", val: g.value(col)}}
	}
}

func (g *eqGen) query() *eqQuery {
	q := &eqQuery{shape: eqShapes[g.rng.Intn(len(eqShapes))], limit: -1}
	// One statement in fifteen has the shape the index-order path serves:
	// single table, one ORDER BY key on t.a, a LIMIT.
	walk := g.rng.Intn(15) == 0
	if walk {
		q.shape = eqShapes[0]
	}
	var cols []eqCol
	for _, ti := range q.shape.tables() {
		for _, c := range eqSchema[ti].Columns {
			cols = append(cols, eqColumn(c.Name))
		}
	}
	if g.rng.Intn(5) > 0 {
		q.where = g.pred(cols, 2)
		if g.rng.Intn(3) == 0 {
			q.where = eqBin{l: q.where, r: g.pred(cols, 1)}
		}
	}
	switch k := g.rng.Intn(5); {
	case walk:
		g.plain(q, cols)
		q.orderBy = []eqOrder{{ref: "a", col: eqColumn("a"), desc: g.rng.Intn(2) == 0}}
	case k == 0:
		g.ungrouped(q, cols)
	case k <= 2:
		g.grouped(q, cols)
	default:
		g.plain(q, cols)
	}
	if walk || g.rng.Intn(3) > 0 {
		q.limit = g.rng.Intn(12)
		if g.rng.Intn(5) == 0 {
			q.limit = 50
		}
		if g.rng.Intn(3) == 0 {
			q.offset = g.rng.Intn(6)
		}
	}
	return q
}

// eqFewValued filters cols down to the columns with a handful of
// distinct values (every shape has at least one).
func eqFewValued(cols []eqCol) []eqCol {
	var few []eqCol
	for _, c := range cols {
		switch c.name {
		case "a", "b", "c", "grp", "tag", "n":
			few = append(few, c)
		}
	}
	return few
}

func (g *eqGen) plain(q *eqQuery, cols []eqCol) {
	aliases := g.rng.Intn(4) == 0
	if g.rng.Intn(6) == 0 {
		q.items = []string{"*"}
		for _, c := range cols {
			q.outCols = append(q.outCols, eqOut{name: c.name, col: c})
		}
		aliases = false
	} else {
		for i, n := 0, 1+g.rng.Intn(4); i < n; i++ {
			c := g.pick(cols)
			out := eqOut{name: c.name, col: c}
			item := c.name
			if g.rng.Intn(5) == 0 {
				item = c.table + "." + c.name
			}
			if aliases {
				out.name = fmt.Sprintf("o%d", i)
				item += " AS " + out.name
			}
			q.items = append(q.items, item)
			q.outCols = append(q.outCols, out)
		}
	}
	for i, n := 0, g.rng.Intn(3); i < n; i++ {
		k := eqOrder{desc: g.rng.Intn(2) == 0}
		if aliases {
			// Every key an output alias: the post-projection rule.
			o := q.outCols[g.rng.Intn(len(q.outCols))]
			k.ref, k.col = o.name, o.col
		} else {
			// Any table column, projected or not; half the time one with
			// few distinct values, so that the cut falls inside a tie.
			k.col = g.pick(cols)
			if g.rng.Intn(2) == 0 {
				k.col = g.pick(eqFewValued(cols))
			}
			k.ref = k.col.name
		}
		q.orderBy = append(q.orderBy, k)
	}
}

var eqAggs = []string{"COUNT*", "COUNT", "SUM", "AVG", "MIN", "MAX"}

func (g *eqGen) aggItem(q *eqQuery, cols []eqCol, i int) {
	agg := eqAggs[g.rng.Intn(len(eqAggs))]
	out := eqOut{name: fmt.Sprintf("g%d", i), agg: agg}
	if agg == "COUNT*" {
		q.items = append(q.items, "COUNT(*) AS "+out.name)
	} else {
		out.col = g.pick(cols)
		if agg == "SUM" || agg == "AVG" {
			for eqSchema[out.col.ti].Columns[out.col.ci].Type == String {
				out.col = g.pick(cols)
			}
		}
		q.items = append(q.items, fmt.Sprintf("%s(%s) AS %s", agg, out.col.name, out.name))
	}
	q.outCols = append(q.outCols, out)
}

func (g *eqGen) ungrouped(q *eqQuery, cols []eqCol) {
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		g.aggItem(q, cols, i)
	}
}

func (g *eqGen) grouped(q *eqQuery, cols []eqCol) {
	// Group columns with few distinct values, one of each key path: Int
	// and String key by value, Float and multi-column by formatted key.
	few := eqFewValued(cols)
	q.groupBy = []eqCol{g.pick(few)}
	if g.rng.Intn(3) == 0 {
		if c := g.pick(few); c != q.groupBy[0] {
			q.groupBy = append(q.groupBy, c)
		}
	}
	for _, c := range q.groupBy {
		q.items = append(q.items, c.name)
		q.outCols = append(q.outCols, eqOut{name: c.name, col: c})
	}
	if g.rng.Intn(4) == 0 {
		// A plain column that is not grouped: first row of the group wins.
		c := g.pick(cols)
		q.items = append(q.items, c.name+" AS first")
		q.outCols = append(q.outCols, eqOut{name: "first", col: c})
	}
	for i, n := 0, 1+g.rng.Intn(2); i < n; i++ {
		g.aggItem(q, cols, i)
	}
	for i, n := 0, g.rng.Intn(3); i < n; i++ {
		out := g.rng.Intn(len(q.outCols))
		q.orderBy = append(q.orderBy, eqOrder{ref: q.outCols[out].name, out: out, desc: g.rng.Intn(2) == 0})
	}
}

// arrival lists the driving table's slots in the order the access path
// EXPLAIN names produces them.
func eqArrival(rows [][]Value, ti int, explain string) []int {
	ids := make([]int, 0, len(rows))
	for i, r := range rows {
		if r != nil {
			ids = append(ids, i)
		}
	}
	var col string
	desc := false
	switch {
	case strings.HasPrefix(explain, "IndexRange("):
		col = strings.Fields(strings.TrimPrefix(explain, "IndexRange("))[0]
	case strings.HasPrefix(explain, "IndexOrder("):
		f := strings.Fields(strings.TrimSuffix(strings.TrimPrefix(explain, "IndexOrder("), ")"))
		col, desc = f[0], f[1] == "desc"
	default:
		return ids // Scan, PKLookup, IndexLookup: slot order
	}
	ci := eqSchema[ti].colIndex(col[strings.Index(col, ".")+1:])
	sort.SliceStable(ids, func(i, j int) bool {
		c, _ := compare(rows[ids[i]][ci], rows[ids[j]][ci])
		return c < 0
	})
	if desc {
		for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
			ids[i], ids[j] = ids[j], ids[i]
		}
	}
	return ids
}

// reference computes the statement's result the textbook way.
func (q *eqQuery) reference(d *eqData, explain string) [][]Value {
	tables := q.shape.tables()
	pos := map[string][2]int{}
	for bi, ti := range tables {
		for ci, c := range eqSchema[ti].Columns {
			pos[c.Name] = [2]int{bi, ci}
		}
	}
	at := func(rows [][]Value, name string) Value { return rows[pos[name][0]][pos[name][1]] }

	// 1. Every matched combination, materialised, in arrival order.
	var matched [][][]Value
	rows := make([][]Value, len(tables))
	var rec func(bi int)
	rec = func(bi int) {
		if bi == len(tables) {
			if q.where == nil || q.where.eval(rows, pos) {
				matched = append(matched, append([][]Value(nil), rows...))
			}
			return
		}
		j := q.shape.joins[bi-1]
		inner := eqColumn(j[0])
		for _, r := range d[tables[bi]] {
			if r != nil && valuesEqual(r[inner.ci], at(rows, j[1])) {
				rows[bi] = r
				rec(bi + 1)
			}
		}
	}
	for _, slot := range eqArrival(d[tables[0]], tables[0], explain) {
		rows[0] = d[tables[0]][slot]
		rec(1)
	}

	less := func(keys []eqOrder, val func(k eqOrder, i int) Value) func(i, j int) bool {
		return func(i, j int) bool {
			for _, k := range keys {
				c, _ := compare(val(k, i), val(k, j))
				if c != 0 {
					return (c < 0) != k.desc
				}
			}
			return false
		}
	}

	var out [][]Value
	if !q.aggregated() {
		// 2. Stable sort on the combined rows, 3. project.
		sort.SliceStable(matched, less(q.orderBy, func(k eqOrder, i int) Value { return at(matched[i], k.col.name) }))
		for _, m := range matched {
			row := make([]Value, len(q.outCols))
			for i, o := range q.outCols {
				row[i] = at(m, o.col.name)
			}
			out = append(out, row)
		}
	} else {
		// 2. Group in first-seen order, 3. stable sort the output rows.
		type group struct {
			first [][]Value
			rows  [][][]Value
		}
		var groups []*group
		byKey := map[string]*group{}
		for _, m := range matched {
			key := ""
			for _, gc := range q.groupBy {
				key += fmt.Sprintf("%T:%v|", at(m, gc.name), at(m, gc.name))
			}
			g := byKey[key]
			if g == nil {
				g = &group{first: m}
				byKey[key] = g
				groups = append(groups, g)
			}
			g.rows = append(g.rows, m)
		}
		if len(groups) == 0 && len(q.groupBy) == 0 {
			groups = append(groups, &group{})
		}
		for _, g := range groups {
			row := make([]Value, len(q.outCols))
			for i, o := range q.outCols {
				switch {
				case o.agg == "" && g.first != nil:
					row[i] = at(g.first, o.col.name)
				case o.agg == "COUNT*":
					row[i] = int64(len(g.rows))
				case o.agg != "":
					row[i] = eqAggregate(o.agg, g.rows, func(m [][]Value) Value { return at(m, o.col.name) })
				}
			}
			out = append(out, row)
		}
		sort.SliceStable(out, less(q.orderBy, func(k eqOrder, i int) Value { return out[i][k.out] }))
	}

	// 4. Slice.
	if q.limit >= 0 {
		if q.offset >= len(out) {
			out = nil
		} else {
			out = out[q.offset:]
		}
		if q.limit < len(out) {
			out = out[:q.limit]
		}
	}
	return out
}

func eqAggregate(agg string, rows [][][]Value, arg func([][]Value) Value) Value {
	var count int64
	var sum float64
	ints := true
	var lo, hi Value
	for _, m := range rows {
		v := arg(m)
		if v == nil {
			continue
		}
		count++
		switch n := v.(type) {
		case int64:
			sum += float64(n)
		case float64:
			sum += n
			ints = false
		}
		if c, _ := compare(v, lo); lo == nil || c < 0 {
			lo = v
		}
		if c, _ := compare(v, hi); hi == nil || c > 0 {
			hi = v
		}
	}
	switch agg {
	case "COUNT":
		return count
	case "SUM":
		if count > 0 && ints {
			return int64(sum)
		}
		return sum
	case "AVG":
		if count == 0 {
			return nil
		}
		return sum / float64(count)
	case "MIN":
		return lo
	default:
		return hi
	}
}

func TestExecutorMatchesReference(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		for _, extra := range []bool{false, true} {
			t.Run(fmt.Sprintf("mvcc=%v/indexes=%v", mvcc, extra), func(t *testing.T) {
				rng := rand.New(rand.NewSource(20090629))
				c, d := eqPopulate(t, rng, mvcc, extra)
				gen := &eqGen{rng: rng}
				paths := map[string]int{}
				for n := 0; n < 1500; n++ {
					q := gen.query()
					sql, args := q.sql()
					plan := explain(t, c, sql)
					paths[plan[0][:strings.Index(plan[0], "(")]]++
					rs, err := c.Query(sql, args...)
					if err != nil {
						t.Fatalf("%s %v: %v", sql, args, err)
					}
					want := q.reference(d, plan[0])
					if len(rs.Rows) == 0 && len(want) == 0 {
						continue
					}
					if !reflect.DeepEqual(rs.Rows, want) {
						t.Fatalf("%s %v\nplan %v\n got %v\nwant %v", sql, args, plan, rs.Rows, want)
					}
				}
				t.Logf("driving access paths exercised: %v", paths)
				for _, p := range []string{"Scan", "PKLookup", "IndexLookup"} {
					if paths[p] == 0 {
						t.Errorf("no statement drove through %s", p)
					}
				}
				if extra && (paths["IndexRange"] == 0 || paths["IndexOrder"] == 0) {
					t.Errorf("with the extra indexes no statement drove through IndexRange/IndexOrder: %v", paths)
				}
			})
		}
	}
}
