package template

import (
	"fmt"
	"strconv"
	"strings"
)

// expr is a parsed expression: a literal, a dotted variable path, a
// filter pipeline, or a boolean/comparison tree (inside {% if %}).
type expr interface {
	eval(ctx *Context) (any, error)
}

// ---- scanner ----

type exprScanner struct {
	src string
	pos int
	cur string // current token ("" at end)
}

func newExprScanner(src string) (*exprScanner, error) {
	s := &exprScanner{src: src}
	if err := s.next(); err != nil {
		return nil, err
	}
	return s, nil
}

// next advances to the following token.
func (s *exprScanner) next() error {
	for s.pos < len(s.src) && (s.src[s.pos] == ' ' || s.src[s.pos] == '\t' || s.src[s.pos] == '\n' || s.src[s.pos] == '\r') {
		s.pos++
	}
	if s.pos >= len(s.src) {
		s.cur = ""
		return nil
	}
	start := s.pos
	c := s.src[s.pos]
	switch {
	case c == '\'' || c == '"':
		quote := c
		s.pos++
		for s.pos < len(s.src) && s.src[s.pos] != quote {
			s.pos++
		}
		if s.pos >= len(s.src) {
			return fmt.Errorf("template: unterminated string in %q", s.src)
		}
		s.pos++ // consume closing quote
		s.cur = s.src[start:s.pos]
	case isWordStart(c):
		for s.pos < len(s.src) && isWordByte(s.src[s.pos]) {
			s.pos++
		}
		s.cur = s.src[start:s.pos]
	case c >= '0' && c <= '9' || c == '-' && s.pos+1 < len(s.src) && s.src[s.pos+1] >= '0' && s.src[s.pos+1] <= '9':
		s.pos++
		for s.pos < len(s.src) && (s.src[s.pos] >= '0' && s.src[s.pos] <= '9' || s.src[s.pos] == '.') {
			s.pos++
		}
		s.cur = s.src[start:s.pos]
	case c == '=' || c == '!' || c == '<' || c == '>':
		s.pos++
		if s.pos < len(s.src) && s.src[s.pos] == '=' {
			s.pos++
		}
		s.cur = s.src[start:s.pos]
	case c == '|' || c == ':':
		s.pos++
		s.cur = s.src[start:s.pos]
	default:
		return fmt.Errorf("template: unexpected character %q in expression %q", c, s.src)
	}
	return nil
}

func (s *exprScanner) atEnd() bool { return s.cur == "" }

func isWordStart(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

// isWordByte includes '.' so dotted paths scan as one token, as in Django.
func isWordByte(c byte) bool {
	return isWordStart(c) || '0' <= c && c <= '9' || c == '.'
}

// ---- AST ----

type literalExpr struct{ v any }

func (l literalExpr) eval(*Context) (any, error) { return l.v, nil }

type pathExpr struct{ parts []string }

func (p pathExpr) eval(ctx *Context) (any, error) {
	v, ok := ctx.Lookup(p.parts[0])
	if !ok {
		return nil, nil // Django: missing variables render as empty
	}
	for _, attr := range p.parts[1:] {
		v = resolveAttr(v, attr)
	}
	return v, nil
}

type filterCall struct {
	name     string
	fn       FilterFunc
	appendFn appendFilter // fn's append form; nil when it has none
	arg      expr         // nil when the filter takes no argument
	hasArg   bool
}

func (f *filterCall) evalArg(ctx *Context) (any, error) {
	if !f.hasArg {
		return nil, nil
	}
	return f.arg.eval(ctx)
}

type pipelineExpr struct {
	base    expr
	filters []filterCall
}

func (p pipelineExpr) eval(ctx *Context) (any, error) {
	v, err := p.base.eval(ctx)
	if err != nil {
		return nil, err
	}
	for i := range p.filters {
		f := &p.filters[i]
		arg, err := f.evalArg(ctx)
		if err != nil {
			return nil, err
		}
		v, err = f.fn(v, arg, f.hasArg)
		if err != nil {
			return nil, fmt.Errorf("filter %q: %w", f.name, err)
		}
	}
	return v, nil
}

type binaryExpr struct {
	op   string
	l, r expr
}

func (b binaryExpr) eval(ctx *Context) (any, error) {
	lv, err := b.l.eval(ctx)
	if err != nil {
		return nil, err
	}
	// Short-circuit boolean operators.
	switch b.op {
	case "and":
		if !Truth(lv) {
			return lv, nil
		}
		return b.r.eval(ctx)
	case "or":
		if Truth(lv) {
			return lv, nil
		}
		return b.r.eval(ctx)
	}
	rv, err := b.r.eval(ctx)
	if err != nil {
		return nil, err
	}
	switch b.op {
	case "==":
		return Equal(lv, rv), nil
	case "!=":
		return !Equal(lv, rv), nil
	case "<":
		return Less(lv, rv)
	case ">":
		return Less(rv, lv)
	case "<=":
		gt, err := Less(rv, lv)
		return !gt, err
	case ">=":
		lt, err := Less(lv, rv)
		return !lt, err
	case "in":
		return Contains(lv, rv)
	case "not in":
		ok, err := Contains(lv, rv)
		return !ok, err
	default:
		return nil, fmt.Errorf("template: unknown operator %q", b.op)
	}
}

type notExprNode struct{ e expr }

func (n notExprNode) eval(ctx *Context) (any, error) {
	v, err := n.e.eval(ctx)
	if err != nil {
		return nil, err
	}
	return !Truth(v), nil
}

// ---- parser ----

// parsePipelineString parses "value|filter:arg|filter2" (the {{ ... }}
// form and filter arguments in tags).
func parsePipelineString(src string, filters *FilterSet) (expr, error) {
	s, err := newExprScanner(src)
	if err != nil {
		return nil, err
	}
	e, err := parsePipeline(s, filters)
	if err != nil {
		return nil, err
	}
	if !s.atEnd() {
		return nil, fmt.Errorf("template: trailing %q in expression %q", s.cur, src)
	}
	return e, nil
}

// parseConditionString parses an {% if %} condition.
func parseConditionString(src string, filters *FilterSet) (expr, error) {
	s, err := newExprScanner(src)
	if err != nil {
		return nil, err
	}
	e, err := parseOr(s, filters)
	if err != nil {
		return nil, err
	}
	if !s.atEnd() {
		return nil, fmt.Errorf("template: trailing %q in condition %q", s.cur, src)
	}
	return e, nil
}

func parseOr(s *exprScanner, filters *FilterSet) (expr, error) {
	l, err := parseAnd(s, filters)
	if err != nil {
		return nil, err
	}
	for s.cur == "or" {
		if err := s.next(); err != nil {
			return nil, err
		}
		r, err := parseAnd(s, filters)
		if err != nil {
			return nil, err
		}
		l = binaryExpr{op: "or", l: l, r: r}
	}
	return l, nil
}

func parseAnd(s *exprScanner, filters *FilterSet) (expr, error) {
	l, err := parseNot(s, filters)
	if err != nil {
		return nil, err
	}
	for s.cur == "and" {
		if err := s.next(); err != nil {
			return nil, err
		}
		r, err := parseNot(s, filters)
		if err != nil {
			return nil, err
		}
		l = binaryExpr{op: "and", l: l, r: r}
	}
	return l, nil
}

func parseNot(s *exprScanner, filters *FilterSet) (expr, error) {
	if s.cur == "not" {
		if err := s.next(); err != nil {
			return nil, err
		}
		e, err := parseNot(s, filters)
		if err != nil {
			return nil, err
		}
		return notExprNode{e}, nil
	}
	return parseComparison(s, filters)
}

func parseComparison(s *exprScanner, filters *FilterSet) (expr, error) {
	l, err := parsePipeline(s, filters)
	if err != nil {
		return nil, err
	}
	op := ""
	switch s.cur {
	case "==", "!=", "<", "<=", ">", ">=", "in":
		op = s.cur
		if err := s.next(); err != nil {
			return nil, err
		}
	case "not":
		// "a not in b"
		if err := s.next(); err != nil {
			return nil, err
		}
		if s.cur != "in" {
			return nil, fmt.Errorf("template: expected 'in' after 'not', got %q", s.cur)
		}
		op = "not in"
		if err := s.next(); err != nil {
			return nil, err
		}
	default:
		return l, nil
	}
	r, err := parsePipeline(s, filters)
	if err != nil {
		return nil, err
	}
	return binaryExpr{op: op, l: l, r: r}, nil
}

func parsePipeline(s *exprScanner, filters *FilterSet) (expr, error) {
	base, err := parseOperand(s, filters)
	if err != nil {
		return nil, err
	}
	var calls []filterCall
	for s.cur == "|" {
		if err := s.next(); err != nil {
			return nil, err
		}
		name := s.cur
		if name == "" || !isWordStart(name[0]) {
			return nil, fmt.Errorf("template: expected filter name, got %q", name)
		}
		fn, ok := filters.Get(name)
		if !ok {
			return nil, fmt.Errorf("template: unknown filter %q", name)
		}
		if err := s.next(); err != nil {
			return nil, err
		}
		call := filterCall{name: name, fn: fn, appendFn: filters.app[name]}
		if s.cur == ":" {
			if err := s.next(); err != nil {
				return nil, err
			}
			arg, err := parseOperand(s, filters)
			if err != nil {
				return nil, err
			}
			call.arg, call.hasArg = arg, true
		}
		calls = append(calls, call)
	}
	if len(calls) == 0 {
		return base, nil
	}
	return pipelineExpr{base: base, filters: calls}, nil
}

func parseOperand(s *exprScanner, _ *FilterSet) (expr, error) {
	tok := s.cur
	if tok == "" {
		return nil, fmt.Errorf("template: unexpected end of expression")
	}
	defer func() { _ = s.next() }()
	switch {
	case tok[0] == '\'' || tok[0] == '"':
		return literalExpr{tok[1 : len(tok)-1]}, nil
	case tok[0] >= '0' && tok[0] <= '9' || tok[0] == '-':
		if strings.ContainsRune(tok, '.') {
			f, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return nil, fmt.Errorf("template: bad number %q", tok)
			}
			return literalExpr{f}, nil
		}
		n, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("template: bad number %q", tok)
		}
		return literalExpr{n}, nil
	case tok == "True" || tok == "true":
		return literalExpr{true}, nil
	case tok == "False" || tok == "false":
		return literalExpr{false}, nil
	case tok == "None" || tok == "none" || tok == "nil":
		return literalExpr{nil}, nil
	case isWordStart(tok[0]):
		parts := strings.Split(tok, ".")
		for _, p := range parts {
			if p == "" {
				return nil, fmt.Errorf("template: malformed variable path %q", tok)
			}
		}
		return pathExpr{parts: parts}, nil
	default:
		return nil, fmt.Errorf("template: unexpected token %q", tok)
	}
}
