package sqldb

import "fmt"

// This file compiles WHERE conjuncts into closures with column positions
// resolved once, when the statement is prepared (the closures read only
// the row and the execution's arguments, so a cached plan shares them
// between executions), and splits them by the join binding they read so
// the executor can apply each predicate as early as possible during join
// enumeration (predicate pushdown). Without this, a query like the TPC-W
// new-products listing would join the author table for all ten thousand
// item rows before discarding 96% of them on the subject filter.

// compiledPred is a WHERE conjunct ready for per-row evaluation.
type compiledPred struct {
	eval  func(rows [][]Value, ec *execCtx) (bool, error)
	depth int // the binding whose column it reads
	col   int // that column's index in its row

	// intSlot is the int slot (see table.intCols) of an = or > conjunct on
	// an Int column that has one, else -1: on a version that holds the
	// cell, an int64 operand is compared with ints[intSlot] (see allHold).
	intSlot int8
	op      cmpOp
	rhs     operand

	// coded marks a SELECT conjunct on a coded column (see
	// table.codeSlot). Its result is a function of the cell alone within
	// one execution, so on a row whose version carries a code for the
	// column, codes[slot] of the version bound at depth, it is evaluated
	// once per code: memo|code indexes the execution's codeMemo.
	coded bool
	slot  int8
	memo  int
}

// compileWhere compiles the WHERE conjuncts into per-depth predicate
// lists: preds[i] holds the conjuncts that can run once bindings 0..i
// are bound. coded counts the coded conjuncts compiled so far; nil (a
// DML read phase, which keeps no memo) codes none.
func compileWhere(where []pred, bindings []binding, coded *int) ([][]compiledPred, error) {
	preds := make([][]compiledPred, len(bindings))
	for _, w := range where {
		cp, err := compilePred(w, bindings)
		if err != nil {
			return nil, err
		}
		if slot := bindings[cp.depth].tbl.codeSlot[cp.col]; coded != nil && slot >= 0 {
			cp.coded, cp.slot, cp.memo = true, slot, *coded<<8
			*coded++
		}
		preds[cp.depth] = append(preds[cp.depth], cp)
	}
	return preds, nil
}

// allHold evaluates preds, the conjuncts of one depth, on rows, whose row
// at that depth is rv's. A conjunct on an Int cell rv holds (intSlot) with
// an int64 operand compares the two without loading the row; a NULL cell
// or any other operand goes to eval. A coded conjunct on a row whose
// version carries a code for its column is evaluated on the first such
// row only, and its result remembered in ec.memo for the rest; an error is
// not remembered. It serves SELECT and DML alike: DML compiles no coded
// conjunct.
func allHold(preds []compiledPred, rows [][]Value, rv *rowVersion, ec *execCtx) (bool, error) {
	for k := range preds {
		p := &preds[k]
		if p.intSlot >= 0 {
			if ok, done, err := p.cmpCell(rv, ec); done {
				if err != nil || !ok {
					return false, err
				}
				continue
			}
		}
		var memo *uint8
		if p.coded {
			if code := rv.codes[p.slot]; code != 0 {
				memo = &ec.memo.results[p.memo|int(code)]
				if *memo == memoTrue {
					continue
				}
				if *memo == memoFalse {
					return false, nil
				}
			}
		}
		ok, err := p.eval(rows, ec)
		if err != nil {
			return false, err
		}
		if memo != nil {
			*memo = memoOf(ok)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// cmpCell evaluates an int-slot conjunct on the cell rv holds. done is
// false, and the conjunct is eval's, when rv holds none (the cell is
// NULL) or the operand is not an int64.
func (p *compiledPred) cmpCell(rv *rowVersion, ec *execCtx) (ok, done bool, err error) {
	a, held := rv.intCell(p.intSlot)
	if !held {
		return false, false, nil
	}
	v, err := p.rhs.value(ec)
	if err != nil {
		return false, true, err
	}
	b, isInt := v.(int64)
	if !isInt {
		return false, false, nil
	}
	if p.op == opEq {
		return a == b, true, nil
	}
	return a > b, true, nil
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

// compilePred compiles one conjunct.
func compilePred(w pred, bindings []binding) (compiledPred, error) {
	bi, ci, err := resolveCol(bindings, w.Col)
	if err != nil {
		return compiledPred{}, err
	}
	op, rhs := w.Op, w.Rhs
	cp := compiledPred{depth: bi, col: ci, intSlot: -1, op: op, rhs: rhs}
	if op == opLike {
		cp.eval = func(rows [][]Value, ec *execCtx) (bool, error) {
			s, ok1 := rows[bi][ci].(string)
			rv, err := rhs.value(ec)
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
			return ec.like.match(s), nil
		}
		return cp, nil
	}
	// The schema fixes what a non-NULL cell of the column holds, so the
	// comparison is picked here, not per row.
	switch tbl := bindings[bi].tbl; tbl.schema.Columns[ci].Type {
	case Int:
		cp.eval = typedCmp[int64](op, bi, ci, rhs)
		cp.intSlot = tbl.intSlot(ci)
	case String:
		cp.eval = typedCmp[string](op, bi, ci, rhs)
	default:
		cp.eval = func(rows [][]Value, ec *execCtx) (bool, error) {
			rv, err := rhs.value(ec)
			if err != nil {
				return false, err
			}
			return op.compare(rows[bi][ci], rv)
		}
	}
	return cp, nil
}

// holds reports whether = or > accepts the three-way result c.
func (op cmpOp) holds(c int) bool {
	if op == opEq {
		return c == 0
	}
	return c > 0
}

// compare applies = or > to any two values: NULL on either side is
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
func typedCmp[T int64 | string](op cmpOp, bi, ci int, rhs operand) func([][]Value, *execCtx) (bool, error) {
	return func(rows [][]Value, ec *execCtx) (bool, error) {
		rv, err := rhs.value(ec)
		if err != nil {
			return false, err
		}
		lhs := rows[bi][ci]
		if a, ok := lhs.(T); ok {
			if b, ok := rv.(T); ok {
				if op == opEq { // no ordering needed: strings differ by length first
					return a == b, nil
				}
				return a > b, nil
			}
		}
		return op.compare(lhs, rv)
	}
}

// value is the operand's value in an execution: the literal, or the
// argument bound to the placeholder.
func (op operand) value(ec *execCtx) (Value, error) {
	if !op.IsPlacehold {
		return op.Lit, nil
	}
	if op.Placeholder >= len(ec.args) {
		return nil, fmt.Errorf("sqldb: missing argument for placeholder %d", op.Placeholder+1)
	}
	return ec.args[op.Placeholder], nil
}
