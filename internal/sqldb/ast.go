package sqldb

// The statement AST. Statements are immutable after parsing, so the DB
// caches them by SQL text (the prepared-statement effect the paper gets
// from per-thread connections).

// stmt is any parsed statement.
type stmt interface{ isStmt() }

// colRef names a column, optionally qualified: "item.i_id" or "i_id".
type colRef struct {
	Table  string // may be ""
	Column string
}

func (c colRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// operand is a leaf value in expressions: a literal, a placeholder, or a
// column reference.
type operand struct {
	Lit         Value
	IsLit       bool
	Placeholder int // ordinal, valid when IsPlaceholder
	IsPlacehold bool
	Col         colRef // valid otherwise
}

// boolExpr is a WHERE-clause predicate tree.
type boolExpr interface{ isBool() }

type andExpr struct{ L, R boolExpr }
type orExpr struct{ L, R boolExpr }
type notExpr struct{ E boolExpr }

// cmpExpr is "col OP operand" with OP in =, !=, <, <=, >, >=.
type cmpExpr struct {
	Col colRef
	Op  string
	Rhs operand
}

// likeExpr is "col LIKE pattern".
type likeExpr struct {
	Col colRef
	Rhs operand
	Neg bool
}

// inExpr is "col IN (a, b, ...)".
type inExpr struct {
	Col colRef
	Set []operand
	Neg bool
}

// nullExpr is "col IS [NOT] NULL".
type nullExpr struct {
	Col colRef
	Neg bool
}

func (andExpr) isBool()  {}
func (orExpr) isBool()   {}
func (notExpr) isBool()  {}
func (cmpExpr) isBool()  {}
func (likeExpr) isBool() {}
func (inExpr) isBool()   {}
func (nullExpr) isBool() {}

// aggKind enumerates aggregate functions.
type aggKind int

const (
	aggNone aggKind = iota
	aggCount
	aggSum
	aggAvg
	aggMin
	aggMax
)

// selectItem is one projection: a column, a star, or an aggregate.
type selectItem struct {
	Star  bool    // SELECT * or t.*
	Table string  // for t.*
	Col   colRef  // plain column
	Agg   aggKind // aggregate function; aggNone for plain column
	// AggCol is the aggregate argument; Star-count is COUNT(*).
	AggCol  colRef
	AggStar bool
	Alias   string // AS name
}

// tableRef is a FROM or JOIN table with an optional alias.
type tableRef struct {
	Table string
	Alias string
}

func (t tableRef) name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// joinClause is "INNER JOIN t ON a.x = b.y".
type joinClause struct {
	Table tableRef
	LCol  colRef
	RCol  colRef
}

// orderKey is one ORDER BY key; Ref may name a select alias.
type orderKey struct {
	Ref  colRef
	Desc bool
}

// selectStmt is a parsed SELECT.
type selectStmt struct {
	Items   []selectItem
	From    tableRef
	Joins   []joinClause
	Where   boolExpr // may be nil
	GroupBy []colRef
	OrderBy []orderKey
	Limit   int // -1 when absent
	Offset  int

	// plan is the physical plan chosen at prepare time, immutable once
	// the statement is published through the cache. Nil for statements
	// executed without preparation (direct parse in tests); the executor
	// plans those on the fly.
	plan *selectPlan
}

// explainStmt is "EXPLAIN SELECT ...": it never executes, it renders
// the inner statement's chosen physical plan, one operator per row.
type explainStmt struct {
	Sel *selectStmt
}

// insertStmt is a parsed INSERT.
type insertStmt struct {
	Table  string
	Cols   []string
	Values []operand
}

// updateStmt is a parsed UPDATE.
type updateStmt struct {
	Table string
	Cols  []string
	Vals  []operand
	Where boolExpr // may be nil

	// plan is the compiled read phase, set at prepare time like
	// selectStmt.plan.
	plan *dmlPlan
}

// deleteStmt is a parsed DELETE.
type deleteStmt struct {
	Table string
	Where boolExpr // may be nil

	plan *dmlPlan // see updateStmt.plan
}

func (*selectStmt) isStmt()  {}
func (*explainStmt) isStmt() {}
func (*insertStmt) isStmt()  {}
func (*updateStmt) isStmt()  {}
func (*deleteStmt) isStmt()  {}
