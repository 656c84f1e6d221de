package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// sqlParser is a recursive-descent parser over the token stream. The
// grammar is the SQL internal/tpcw issues, and nothing more:
//
//	SELECT * | col | SUM(col) AS name, ... FROM t [JOIN t ON col = col]...
//	    [WHERE cond [AND cond]...] [GROUP BY col]
//	    [ORDER BY col [ASC|DESC], ...] [LIMIT n]
//	EXPLAIN SELECT ...
//	INSERT INTO t (col, ...) VALUES (value, ...)
//	UPDATE t SET col = value, ... [WHERE ...]
//	DELETE FROM t [WHERE ...]
//
// where cond is "col = value", "col > value" or "col LIKE value", and a
// value is ?, a number, a 'string' or NULL. Anything else is an error
// that quotes the token it stopped at.
type sqlParser struct {
	src          string
	toks         []sqlToken
	pos          int
	placeholders int
}

// parseSQL parses one statement.
func parseSQL(src string) (stmt, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{src: src, toks: toks}
	var s stmt
	switch {
	case p.accept("SELECT"):
		s, err = p.parseSelect()
	case p.accept("EXPLAIN"):
		if err = p.expect("SELECT"); err == nil {
			var sel *selectStmt
			sel, err = p.parseSelect()
			s = &explainStmt{Sel: sel}
		}
	case p.accept("INSERT"):
		s, err = p.parseInsert()
	case p.accept("UPDATE"):
		s, err = p.parseUpdate()
	case p.accept("DELETE"):
		s, err = p.parseDelete()
	default:
		return nil, p.errf("expected SELECT, INSERT, UPDATE, or DELETE, got %q", p.cur().text)
	}
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEnd {
		return nil, p.errf("unexpected %q", p.cur().text)
	}
	return s, nil
}

func (p *sqlParser) cur() sqlToken { return p.toks[p.pos] }

func (p *sqlParser) errf(format string, args ...any) error {
	return fmt.Errorf("sqldb: parse %q: %s (near byte %d)",
		p.src, fmt.Sprintf(format, args...), p.cur().pos)
}

// at reports whether the current token is the keyword or punctuation
// text.
func (p *sqlParser) at(text string) bool {
	t := p.cur()
	return (t.kind == tokKeyword || t.kind == tokPunct) && t.text == text
}

// accept consumes the keyword or punctuation text if it is next.
func (p *sqlParser) accept(text string) bool {
	if p.at(text) {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) expect(text string) error {
	if !p.accept(text) {
		return p.errf("expected %s, got %q", text, p.cur().text)
	}
	return nil
}

// parseName parses a table or column name.
func (p *sqlParser) parseName() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errf("expected a name, got %q", t.text)
	}
	p.pos++
	return t.text, nil
}

// parseNames parses "name, name, ...".
func (p *sqlParser) parseNames() ([]string, error) {
	var names []string
	for {
		name, err := p.parseName()
		if err != nil {
			return nil, err
		}
		names = append(names, name)
		if !p.accept(",") {
			return names, nil
		}
	}
}

// parseTable parses a table name, which takes no alias.
func (p *sqlParser) parseTable() (string, error) {
	name, err := p.parseName()
	if err == nil && (p.cur().kind == tokIdent || p.at("AS")) {
		return "", p.errf("unexpected %q after table %s: tables take no alias", p.cur().text, name)
	}
	return name, err
}

// parseOperand parses a value: a placeholder or a literal.
func (p *sqlParser) parseOperand() (operand, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.pos++
		if strings.ContainsRune(t.text, '.') {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return operand{}, p.errf("bad number %q", t.text)
			}
			return operand{Lit: f}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return operand{}, p.errf("bad number %q", t.text)
		}
		return operand{Lit: n}, nil
	case t.kind == tokString:
		p.pos++
		return operand{Lit: t.text}, nil
	case p.accept("?"):
		p.placeholders++
		return operand{IsPlacehold: true, Placeholder: p.placeholders - 1}, nil
	case p.accept("NULL"):
		return operand{}, nil
	case t.kind == tokIdent:
		return operand{}, p.errf("expected ? or a literal, got column %q", t.text)
	default:
		return operand{}, p.errf("expected ? or a literal, got %q", t.text)
	}
}

// parseOperands parses "value, value, ...".
func (p *sqlParser) parseOperands() ([]operand, error) {
	var ops []operand
	for {
		op, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
		if !p.accept(",") {
			return ops, nil
		}
	}
}

// parseWhere parses an optional WHERE clause: conjuncts joined by AND.
func (p *sqlParser) parseWhere() ([]pred, error) {
	if !p.accept("WHERE") {
		return nil, nil
	}
	var where []pred
	for {
		col, err := p.parseName()
		if err != nil {
			return nil, err
		}
		w := pred{Col: col}
		if w.Op, err = p.parseCmpOp(col); err != nil {
			return nil, err
		}
		if w.Rhs, err = p.parseOperand(); err != nil {
			return nil, err
		}
		where = append(where, w)
		if !p.accept("AND") {
			return where, nil
		}
	}
}

// parseCmpOp parses the comparison after column col.
func (p *sqlParser) parseCmpOp(col string) (cmpOp, error) {
	for op, text := range cmpOps {
		if p.accept(text) {
			return cmpOp(op), nil
		}
	}
	return 0, p.errf("expected =, > or LIKE after %s, got %q", col, p.cur().text)
}

// ---- SELECT ----

func (p *sqlParser) parseSelect() (*selectStmt, error) {
	s := &selectStmt{Limit: -1}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.accept(",") {
			break
		}
	}
	err := p.expect("FROM")
	if err == nil {
		s.From, err = p.parseTable()
	}
	for err == nil && p.accept("JOIN") {
		var j joinClause
		if j.Table, err = p.parseTable(); err == nil {
			err = p.expect("ON")
		}
		if err == nil {
			j.LCol, err = p.parseName()
		}
		if err == nil {
			err = p.expect("=")
		}
		if err == nil {
			j.RCol, err = p.parseName()
		}
		s.Joins = append(s.Joins, j)
	}
	if err == nil {
		s.Where, err = p.parseWhere()
	}
	if err == nil && p.accept("GROUP") {
		if err = p.expect("BY"); err == nil {
			s.GroupBy, err = p.parseName()
		}
		if err == nil && p.at(",") {
			err = p.errf("GROUP BY takes one column")
		}
	}
	if err == nil && p.accept("ORDER") {
		err = p.expect("BY")
		for err == nil {
			key := orderKey{}
			if key.Col, err = p.parseName(); err != nil {
				break
			}
			key.Desc = p.accept("DESC")
			if !key.Desc {
				p.accept("ASC")
			}
			s.OrderBy = append(s.OrderBy, key)
			if !p.accept(",") {
				break
			}
		}
	}
	if err == nil && p.accept("LIMIT") {
		s.Limit, err = p.parseLimit()
	}
	if err != nil {
		return nil, err
	}
	for _, it := range s.Items {
		if it.Sum && s.GroupBy == "" {
			return nil, p.errf("SUM(%s) needs a GROUP BY", it.Col)
		}
	}
	return s, nil
}

func (p *sqlParser) parseLimit() (int, error) {
	t := p.cur()
	n, err := strconv.Atoi(t.text)
	if t.kind != tokNumber || err != nil || n < 0 {
		return 0, p.errf("expected non-negative integer, got %q", t.text)
	}
	p.pos++
	return n, nil
}

func (p *sqlParser) parseSelectItem() (selectItem, error) {
	if p.accept("*") {
		return selectItem{Star: true}, nil
	}
	var err error
	if p.accept("SUM") {
		item := selectItem{Sum: true}
		if err = p.expect("("); err == nil {
			item.Col, err = p.parseName()
		}
		if err == nil {
			err = p.expect(")")
		}
		if err == nil {
			err = p.expect("AS")
		}
		if err == nil {
			item.Alias, err = p.parseName()
		}
		return item, err
	}
	col, err := p.parseName()
	switch {
	case err != nil:
		return selectItem{}, err
	case p.at("("):
		return selectItem{}, p.errf("unsupported function %s", col)
	case p.at("AS"):
		return selectItem{}, p.errf("column aliases are not supported (column %s)", col)
	}
	return selectItem{Col: col}, nil
}

// ---- INSERT / UPDATE / DELETE ----

func (p *sqlParser) parseInsert() (*insertStmt, error) {
	s := &insertStmt{}
	err := p.expect("INTO")
	if err == nil {
		s.Table, err = p.parseName()
	}
	if err == nil {
		err = p.expect("(")
	}
	if err == nil {
		s.Cols, err = p.parseNames()
	}
	for _, text := range []string{")", "VALUES", "("} {
		if err == nil {
			err = p.expect(text)
		}
	}
	if err == nil {
		s.Values, err = p.parseOperands()
	}
	if err == nil {
		err = p.expect(")")
	}
	if err != nil {
		return nil, err
	}
	if len(s.Cols) != len(s.Values) {
		return nil, p.errf("INSERT has %d columns but %d values", len(s.Cols), len(s.Values))
	}
	return s, nil
}

func (p *sqlParser) parseUpdate() (*updateStmt, error) {
	table, err := p.parseName()
	if err != nil {
		return nil, err
	}
	s := &updateStmt{Table: table}
	if err := p.expect("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseName()
		if err == nil {
			err = p.expect("=")
		}
		var v operand
		if err == nil {
			v, err = p.parseOperand()
		}
		if err != nil {
			return nil, err
		}
		s.Cols = append(s.Cols, col)
		s.Vals = append(s.Vals, v)
		if !p.accept(",") {
			break
		}
	}
	if s.Where, err = p.parseWhere(); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *sqlParser) parseDelete() (*deleteStmt, error) {
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	table, err := p.parseName()
	if err != nil {
		return nil, err
	}
	s := &deleteStmt{Table: table}
	if s.Where, err = p.parseWhere(); err != nil {
		return nil, err
	}
	return s, nil
}
