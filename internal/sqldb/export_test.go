package sqldb

import "fmt"

// CostCounts exposes a statement's cost counters to the external test
// package, which can import internal/tpcw (an in-package test cannot:
// tpcw imports sqldb).
type CostCounts struct{ Scanned, Probes, Matched, Sorted, Written int }

// StatementCost executes sql through the statement cache, as Conn.Query
// and Conn.Exec do, and returns the work it counted and the rows it
// returned or affected.
func StatementCost(db *DB, sql string, args ...any) (CostCounts, int, error) {
	s, err := db.prepare(sql)
	if err != nil {
		return CostCounts{}, 0, err
	}
	ec, err := newExecCtx(args)
	if err != nil {
		return CostCounts{}, 0, err
	}
	ec.sql = sql
	var rows int
	switch t := s.(type) {
	case *selectStmt:
		var rs *ResultSet
		if rs, err = db.execSelect(t, ec); err == nil {
			rows = rs.Len()
		}
	case *insertStmt:
		var res ExecResult
		res, err = db.execInsert(t, ec)
		rows = int(res.RowsAffected)
	case *updateStmt:
		var res ExecResult
		res, err = db.execWrite(t.plan, t.Cols, ec)
		rows = int(res.RowsAffected)
	case *deleteStmt:
		var res ExecResult
		res, err = db.execWrite(t.plan, nil, ec)
		rows = int(res.RowsAffected)
	default:
		err = fmt.Errorf("StatementCost: unsupported statement %T", s)
	}
	c := ec.cost
	return CostCounts{c.scanned, c.probes, c.matched, c.sorted, c.written}, rows, err
}

// Prepared is a cached SELECT, so that benchmarks can time the
// statement-cache hit and the execution apart.
type Prepared struct {
	db *DB
	s  *selectStmt
}

// Prepare is the statement-cache lookup (parse and plan on a miss) that
// Conn.Query starts with.
func Prepare(db *DB, sql string) (Prepared, error) {
	s, err := db.prepare(sql)
	if err != nil {
		return Prepared{}, err
	}
	sel, ok := s.(*selectStmt)
	if !ok {
		return Prepared{}, fmt.Errorf("Prepare: %q is not a SELECT", sql)
	}
	return Prepared{db: db, s: sel}, nil
}

// Exec is the rest of Conn.Query: bind the arguments and execute.
func (p Prepared) Exec(args ...any) (*ResultSet, error) {
	ec, err := newExecCtx(args)
	if err != nil {
		return nil, err
	}
	return p.db.execSelect(p.s, ec)
}
