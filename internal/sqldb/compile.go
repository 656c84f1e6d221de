package sqldb

import (
	"cmp"
	"fmt"
)

// This file compiles WHERE trees into closures with column positions
// resolved once, when the statement is prepared (the closures read only
// the row and the execution's arguments, so a cached plan shares them
// between executions), and splits top-level AND conjuncts by the deepest
// join binding they reference so the executor can apply each predicate
// as early as possible during nested-loop enumeration (predicate
// pushdown). Without this, a query like the TPC-W new-products listing
// would join the author table for all ten thousand item rows before
// discarding 96% of them on the subject filter.

// operandFn evaluates a compiled operand against the combined row.
type operandFn func(rows [][]Value, ec *execCtx) (Value, error)

// compiledPred is a WHERE conjunct ready for per-row evaluation.
type compiledPred struct {
	eval  func(rows [][]Value, ec *execCtx) (bool, error)
	depth int // deepest binding index referenced

	// coded marks a SELECT conjunct that compares a coded column (see
	// table.codeSlot) with a literal or placeholder. Its result is a
	// function of the cell alone within one execution, so on a row whose
	// version carries a code for the column, codes[slot] of the version
	// bound at depth, it is evaluated once per code: memo|code indexes
	// the execution's codeMemo. col is the column's index in its row.
	coded bool
	slot  int8
	memo  int
	col   int
}

// splitAnd flattens top-level AND nodes into conjuncts.
func splitAnd(e boolExpr, out []boolExpr) []boolExpr {
	if a, ok := e.(andExpr); ok {
		out = splitAnd(a.L, out)
		return splitAnd(a.R, out)
	}
	return append(out, e)
}

// compileWhere compiles a WHERE tree into per-depth predicate lists:
// preds[i] holds the conjuncts that can run once bindings 0..i are bound.
// coded counts the coded conjuncts compiled so far; nil (a DML read
// phase, which keeps no memo) codes none.
func compileWhere(e boolExpr, bindings []binding, coded *int) ([][]compiledPred, error) {
	preds := make([][]compiledPred, len(bindings))
	if e == nil {
		return preds, nil
	}
	for _, conj := range splitAnd(e, nil) {
		cp, err := compileBool(conj, bindings)
		if err != nil {
			return nil, err
		}
		if coded != nil {
			cp.code(conj, bindings, coded)
		}
		preds[cp.depth] = append(preds[cp.depth], cp)
	}
	return preds, nil
}

// code marks cp coded if its conjunct compares a column with a code slot
// with a literal or placeholder: =, !=, <, <=, >, >=, LIKE or NOT LIKE.
func (cp *compiledPred) code(conj boolExpr, bindings []binding, coded *int) {
	var col colRef
	var rhs operand
	switch t := conj.(type) {
	case cmpExpr:
		col, rhs = t.Col, t.Rhs
	case likeExpr:
		col, rhs = t.Col, t.Rhs
	default:
		return
	}
	if !rhs.IsLit && !rhs.IsPlacehold {
		return
	}
	bi, ci, err := resolveCol(bindings, col)
	if err != nil || bindings[bi].tbl.codeSlot[ci] < 0 {
		return
	}
	cp.coded, cp.slot, cp.memo, cp.col = true, bindings[bi].tbl.codeSlot[ci], *coded<<8, ci
	*coded++
}

// Entries of a codeMemo.
const (
	memoUnknown uint8 = iota
	memoFalse
	memoTrue
)

// codeMemo holds a SELECT execution's coded conjuncts' results by code:
// entry results[memo|code] is memoUnknown until the conjunct has been
// evaluated on a row, or a dictionary string, carrying that code. Beside
// them it keeps the scratch of the execution's sieves (selectRun.sieve):
// one bitset per join depth, and the row a conjunct is evaluated on per
// string, which holds a cell only while it is. It references nothing
// between statements, so a connection keeps its memo from statement to
// statement, and an execution clears only the entries its own conjuncts
// use.
type codeMemo struct {
	results []uint8
	sieves  [][]uint64
	cell    []Value
}

// reset readies the memo for an execution with n coded conjuncts.
func (m *codeMemo) reset(n int) {
	if len(m.results) < n<<8 {
		m.results = make([]uint8, n<<8)
		return
	}
	clear(m.results[:n<<8])
}

// memoOf is the memo entry that remembers result ok.
func memoOf(ok bool) uint8 {
	if ok {
		return memoTrue
	}
	return memoFalse
}

// compileBool compiles one boolean node.
func compileBool(e boolExpr, bindings []binding) (compiledPred, error) {
	switch t := e.(type) {
	case andExpr:
		l, err := compileBool(t.L, bindings)
		if err != nil {
			return compiledPred{}, err
		}
		r, err := compileBool(t.R, bindings)
		if err != nil {
			return compiledPred{}, err
		}
		return compiledPred{
			depth: max(l.depth, r.depth),
			eval: func(rows [][]Value, ec *execCtx) (bool, error) {
				ok, err := l.eval(rows, ec)
				if err != nil || !ok {
					return false, err
				}
				return r.eval(rows, ec)
			},
		}, nil
	case orExpr:
		l, err := compileBool(t.L, bindings)
		if err != nil {
			return compiledPred{}, err
		}
		r, err := compileBool(t.R, bindings)
		if err != nil {
			return compiledPred{}, err
		}
		return compiledPred{
			depth: max(l.depth, r.depth),
			eval: func(rows [][]Value, ec *execCtx) (bool, error) {
				ok, err := l.eval(rows, ec)
				if err != nil || ok {
					return ok, err
				}
				return r.eval(rows, ec)
			},
		}, nil
	case notExpr:
		inner, err := compileBool(t.E, bindings)
		if err != nil {
			return compiledPred{}, err
		}
		return compiledPred{
			depth: inner.depth,
			eval: func(rows [][]Value, ec *execCtx) (bool, error) {
				ok, err := inner.eval(rows, ec)
				return !ok, err
			},
		}, nil
	case cmpExpr:
		bi, ci, err := resolveCol(bindings, t.Col)
		if err != nil {
			return compiledPred{}, err
		}
		rhs, rhsDepth, err := compileOperand(t.Rhs, bindings)
		if err != nil {
			return compiledPred{}, err
		}
		op, ok := cmpOps[t.Op]
		if !ok {
			return compiledPred{}, fmt.Errorf("sqldb: unknown operator %q", t.Op)
		}
		cp := compiledPred{depth: max(bi, rhsDepth)}
		// The schema fixes what a non-NULL cell of the column holds, so
		// the comparison is picked here, not per row.
		switch bindings[bi].tbl.schema.Columns[ci].Type {
		case Int:
			cp.eval = typedCmp[int64](op, bi, ci, rhs)
		case String:
			cp.eval = typedCmp[string](op, bi, ci, rhs)
		default:
			cp.eval = func(rows [][]Value, ec *execCtx) (bool, error) {
				rv, err := rhs(rows, ec)
				if err != nil {
					return false, err
				}
				return op.compare(rows[bi][ci], rv)
			}
		}
		return cp, nil
	case likeExpr:
		bi, ci, err := resolveCol(bindings, t.Col)
		if err != nil {
			return compiledPred{}, err
		}
		rhs, rhsDepth, err := compileOperand(t.Rhs, bindings)
		if err != nil {
			return compiledPred{}, err
		}
		neg := t.Neg
		return compiledPred{
			depth: max(bi, rhsDepth),
			eval: func(rows [][]Value, ec *execCtx) (bool, error) {
				s, ok1 := rows[bi][ci].(string)
				rv, err := rhs(rows, ec)
				if err != nil {
					return false, err
				}
				pat, ok2 := rv.(string)
				if !ok1 || !ok2 {
					return false, nil
				}
				// A literal or placeholder pattern is the same string on
				// every row: it is folded on the first.
				if ec.like.src != pat {
					ec.like.set(pat)
				}
				return ec.like.match(s) != neg, nil
			},
		}, nil
	case inExpr:
		bi, ci, err := resolveCol(bindings, t.Col)
		if err != nil {
			return compiledPred{}, err
		}
		depth := bi
		evals := make([]operandFn, len(t.Set))
		for i, op := range t.Set {
			fn, d, err := compileOperand(op, bindings)
			if err != nil {
				return compiledPred{}, err
			}
			evals[i] = fn
			depth = max(depth, d)
		}
		neg := t.Neg
		return compiledPred{
			depth: depth,
			eval: func(rows [][]Value, ec *execCtx) (bool, error) {
				lhs := rows[bi][ci]
				for _, fn := range evals {
					rv, err := fn(rows, ec)
					if err != nil {
						return false, err
					}
					if valuesEqual(lhs, rv) {
						return !neg, nil
					}
				}
				return neg, nil
			},
		}, nil
	case nullExpr:
		bi, ci, err := resolveCol(bindings, t.Col)
		if err != nil {
			return compiledPred{}, err
		}
		neg := t.Neg
		return compiledPred{
			depth: bi,
			eval: func(rows [][]Value, ec *execCtx) (bool, error) {
				isNull := rows[bi][ci] == nil
				if neg {
					return !isNull, nil
				}
				return isNull, nil
			},
		}, nil
	default:
		return compiledPred{}, fmt.Errorf("sqldb: unknown boolean expression %T", e)
	}
}

// cmpOp is a comparison operator, resolved when the statement is
// compiled.
type cmpOp uint8

const (
	opEq cmpOp = iota
	opNe
	opLt
	opLe
	opGt
	opGe
)

var cmpOps = map[string]cmpOp{"=": opEq, "!=": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe}

// holds reports whether the operator accepts the three-way result c.
func (op cmpOp) holds(c int) bool {
	switch op {
	case opEq:
		return c == 0
	case opNe:
		return c != 0
	case opLt:
		return c < 0
	case opLe:
		return c <= 0
	case opGt:
		return c > 0
	default:
		return c >= 0
	}
}

// compare applies the operator to any two values: NULL on either side is
// false, operands of types that do not compare are an error.
func (op cmpOp) compare(lhs, rhs Value) (bool, error) {
	if lhs == nil || rhs == nil {
		return false, nil
	}
	c, err := compare(lhs, rhs)
	return err == nil && op.holds(c), err
}

// typedCmp compiles `column op operand` for a column whose cells are T or
// NULL. An operand that is a T too — the usual case — is compared as one;
// anything else (NULL, a float against an Int column, a mistyped
// argument) takes the general route and gets its answer or its error.
func typedCmp[T int64 | string](op cmpOp, bi, ci int, rhs operandFn) func([][]Value, *execCtx) (bool, error) {
	return func(rows [][]Value, ec *execCtx) (bool, error) {
		rv, err := rhs(rows, ec)
		if err != nil {
			return false, err
		}
		lhs := rows[bi][ci]
		if a, ok := lhs.(T); ok {
			if b, ok := rv.(T); ok {
				if op == opEq { // no ordering needed: strings differ by length first
					return a == b, nil
				}
				return op.holds(cmp.Compare(a, b)), nil
			}
		}
		return op.compare(lhs, rv)
	}
}

// compileOperand compiles a literal, placeholder, or column reference to
// a value closure plus the deepest binding it references.
func compileOperand(op operand, bindings []binding) (operandFn, int, error) {
	switch {
	case op.IsLit:
		v := op.Lit
		return func([][]Value, *execCtx) (Value, error) { return v, nil }, 0, nil
	case op.IsPlacehold:
		idx := op.Placeholder
		return func(_ [][]Value, ec *execCtx) (Value, error) {
			if idx >= len(ec.args) {
				return nil, fmt.Errorf("sqldb: missing argument for placeholder %d", idx+1)
			}
			return ec.args[idx], nil
		}, 0, nil
	default:
		bi, ci, err := resolveCol(bindings, op.Col)
		if err != nil {
			return nil, 0, err
		}
		return func(rows [][]Value, _ *execCtx) (Value, error) {
			return rows[bi][ci], nil
		}, bi, nil
	}
}
