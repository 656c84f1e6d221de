package sqldb

// The statement AST. Statements are immutable after parsing, so the DB
// caches them by SQL text (the prepared-statement effect the paper gets
// from per-thread connections). Names are unqualified: every column name
// of the TPC-W schema is unique across its tables.

// stmt is any parsed statement.
type stmt interface{ isStmt() }

// operand is a value in a statement: a literal (Lit, nil for NULL) or
// the placeholder numbered Placeholder.
type operand struct {
	Lit         Value
	Placeholder int
	IsPlacehold bool
}

// cmpOp is the comparison of a WHERE conjunct.
type cmpOp uint8

const (
	opEq cmpOp = iota
	opGt
	opLike
)

// cmpOps spells every comparison the grammar has, indexed by cmpOp.
var cmpOps = [...]string{opEq: "=", opGt: ">", opLike: "LIKE"}

// pred is one WHERE conjunct, "Col Op Rhs". A WHERE clause is the AND
// of its conjuncts.
type pred struct {
	Col string
	Op  cmpOp
	Rhs operand
}

// selectItem is one projection: *, a column, or SUM(Col) AS Alias.
type selectItem struct {
	Star  bool
	Col   string
	Sum   bool
	Alias string
}

// joinClause is "JOIN Table ON LCol = RCol".
type joinClause struct {
	Table      string
	LCol, RCol string
}

// orderKey is one ORDER BY key: a column of the result.
type orderKey struct {
	Col  string
	Desc bool
}

// selectStmt is a parsed SELECT.
type selectStmt struct {
	Items   []selectItem
	From    string
	Joins   []joinClause
	Where   []pred
	GroupBy string // "" when absent
	OrderBy []orderKey
	Limit   int // -1 when absent

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
	Where []pred

	// plan is the compiled read phase, set at prepare time like
	// selectStmt.plan.
	plan *dmlPlan
}

// deleteStmt is a parsed DELETE.
type deleteStmt struct {
	Table string
	Where []pred

	plan *dmlPlan // see updateStmt.plan
}

func (*selectStmt) isStmt()  {}
func (*explainStmt) isStmt() {}
func (*insertStmt) isStmt()  {}
func (*updateStmt) isStmt()  {}
func (*deleteStmt) isStmt()  {}
