package template

import (
	"fmt"
	"strings"
)

// Template is a parsed, immutable template ready for concurrent renders.
type Template struct {
	set     *Set
	nodes   nodeList
	extends string              // parent template name, "" if none
	blocks  map[string]nodeList // blocks defined at any depth
}

// parser consumes the token stream.
type parser struct {
	name    string
	tokens  []token
	pos     int
	filters *FilterSet
	blocks  map[string]nodeList
	extends string
}

func parse(name, src string, filters *FilterSet) (*Template, error) {
	tokens, err := lex(name, src)
	if err != nil {
		return nil, err
	}
	p := &parser{name: name, tokens: tokens, filters: filters, blocks: map[string]nodeList{}}
	nodes, stop, err := p.parseNodes(nil)
	if err != nil {
		return nil, err
	}
	if stop != "" {
		return nil, p.errf("unexpected {%% %s %%}", stop)
	}
	return &Template{nodes: nodes, extends: p.extends, blocks: p.blocks}, nil
}

func (p *parser) errf(format string, args ...any) error {
	line := 0
	if p.pos > 0 && p.pos-1 < len(p.tokens) {
		line = p.tokens[p.pos-1].line
	}
	return fmt.Errorf("template %s:%d: %s", p.name, line, fmt.Sprintf(format, args...))
}

// parseNodes parses until EOF or until a tag whose first word is in
// stopTags; the stopping tag's full content is returned.
func (p *parser) parseNodes(stopTags []string) (nodeList, string, error) {
	var nodes nodeList
	for {
		tok := p.tokens[p.pos]
		p.pos++
		switch tok.kind {
		case tokenEOF:
			return nodes, "", nil
		case tokenText:
			nodes = append(nodes, textNode(tok.val))
		case tokenComment:
			// Dropped.
		case tokenVar:
			e, err := parsePipelineString(tok.val, p.filters)
			if err != nil {
				return nil, "", p.errf("%v", err)
			}
			nodes = append(nodes, newVarNode(e, tok.line))
		case tokenTag:
			word := tok.val
			if i := strings.IndexByte(word, ' '); i >= 0 {
				word = word[:i]
			}
			for _, stop := range stopTags {
				if word == stop {
					return nodes, tok.val, nil
				}
			}
			n, err := p.parseTag(word, tok)
			if err != nil {
				return nil, "", err
			}
			if n != nil {
				nodes = append(nodes, n)
			}
		}
	}
}

// newVarNode builds the node for {{ e }}, splitting off a trailing
// filter that has an append form.
func newVarNode(e expr, line int) *varNode {
	n := &varNode{e: e, line: line}
	p, ok := e.(pipelineExpr)
	if !ok {
		return n
	}
	last := len(p.filters) - 1
	if p.filters[last].appendFn == nil {
		return n
	}
	n.tail = &p.filters[last]
	n.e = p.base
	if last > 0 {
		n.e = pipelineExpr{base: p.base, filters: p.filters[:last]}
	}
	return n
}

// parseTag dispatches on the tag keyword.
func (p *parser) parseTag(word string, tok token) (node, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(tok.val, word))
	switch word {
	case "if":
		return p.parseIf(rest)
	case "for":
		return p.parseFor(rest)
	case "with":
		return p.parseWith(rest)
	case "include":
		if rest == "" {
			return nil, p.errf("include needs a template name")
		}
		e, err := parsePipelineString(rest, p.filters)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		return &includeNode{name: e}, nil
	case "extends":
		if p.extends != "" {
			return nil, p.errf("multiple {%% extends %%} tags")
		}
		name := strings.Trim(rest, "\"'")
		if name == "" {
			return nil, p.errf("extends needs a template name")
		}
		p.extends = name
		return nil, nil
	case "block":
		return p.parseBlock(rest)
	case "comment":
		if _, _, err := p.skipUntil("endcomment"); err != nil {
			return nil, err
		}
		return nil, nil
	default:
		return nil, p.errf("unknown tag %q", word)
	}
}

func (p *parser) parseIf(cond string) (node, error) {
	n := &ifNode{}
	for {
		e, err := parseConditionString(cond, p.filters)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		body, stop, err := p.parseNodes([]string{"elif", "else", "endif"})
		if err != nil {
			return nil, err
		}
		n.branches = append(n.branches, ifBranch{cond: e, body: body})
		switch {
		case stop == "endif":
			return n, nil
		case stop == "else":
			elseBody, stop2, err := p.parseNodes([]string{"endif"})
			if err != nil {
				return nil, err
			}
			if stop2 != "endif" {
				return nil, p.errf("unterminated {%% if %%}")
			}
			n.elseBody = elseBody
			return n, nil
		case strings.HasPrefix(stop, "elif"):
			cond = strings.TrimSpace(strings.TrimPrefix(stop, "elif"))
		case stop == "":
			return nil, p.errf("unterminated {%% if %%}")
		}
	}
}

func (p *parser) parseFor(spec string) (node, error) {
	// "x in xs", "k, v in m", optional trailing "reversed".
	n := &forNode{}
	if strings.HasSuffix(spec, " reversed") {
		n.reversed = true
		spec = strings.TrimSuffix(spec, " reversed")
	}
	inIdx := strings.Index(spec, " in ")
	if inIdx < 0 {
		return nil, p.errf("malformed for tag %q: missing 'in'", spec)
	}
	varsPart := spec[:inIdx]
	for _, v := range strings.Split(varsPart, ",") {
		v = strings.TrimSpace(v)
		if v == "" || !isWordStart(v[0]) || strings.Contains(v, ".") {
			return nil, p.errf("bad loop variable %q", v)
		}
		n.vars = append(n.vars, v)
	}
	if len(n.vars) == 0 || len(n.vars) > 2 {
		return nil, p.errf("for tag needs one or two loop variables")
	}
	e, err := parsePipelineString(strings.TrimSpace(spec[inIdx+4:]), p.filters)
	if err != nil {
		return nil, p.errf("%v", err)
	}
	n.iterable = e
	body, stop, err := p.parseNodes([]string{"empty", "endfor"})
	if err != nil {
		return nil, err
	}
	n.body = body
	if stop == "empty" {
		emptyBody, stop2, err := p.parseNodes([]string{"endfor"})
		if err != nil {
			return nil, err
		}
		if stop2 != "endfor" {
			return nil, p.errf("unterminated {%% for %%}")
		}
		n.empty = emptyBody
	} else if stop != "endfor" {
		return nil, p.errf("unterminated {%% for %%}")
	}
	return n, nil
}

func (p *parser) parseWith(spec string) (node, error) {
	// "name=expr" or "expr as name".
	n := &withNode{}
	if asIdx := strings.Index(spec, " as "); asIdx >= 0 {
		e, err := parsePipelineString(strings.TrimSpace(spec[:asIdx]), p.filters)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		n.val = e
		n.name = strings.TrimSpace(spec[asIdx+4:])
	} else if eqIdx := strings.IndexByte(spec, '='); eqIdx > 0 {
		n.name = strings.TrimSpace(spec[:eqIdx])
		e, err := parsePipelineString(strings.TrimSpace(spec[eqIdx+1:]), p.filters)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		n.val = e
	} else {
		return nil, p.errf("malformed with tag %q", spec)
	}
	if n.name == "" || !isWordStart(n.name[0]) {
		return nil, p.errf("bad with variable %q", n.name)
	}
	body, stop, err := p.parseNodes([]string{"endwith"})
	if err != nil {
		return nil, err
	}
	if stop != "endwith" {
		return nil, p.errf("unterminated {%% with %%}")
	}
	n.body = body
	return n, nil
}

func (p *parser) parseBlock(name string) (node, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return nil, p.errf("block needs a name")
	}
	if _, dup := p.blocks[name]; dup {
		return nil, p.errf("duplicate block %q", name)
	}
	body, stop, err := p.parseNodes([]string{"endblock"})
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(stop, "endblock") {
		return nil, p.errf("unterminated {%% block %s %%}", name)
	}
	p.blocks[name] = body
	return &blockNode{name: name, body: body}, nil
}

// skipUntil discards tokens until a tag with the given keyword.
func (p *parser) skipUntil(end string) (nodeList, string, error) {
	for {
		tok := p.tokens[p.pos]
		p.pos++
		switch tok.kind {
		case tokenEOF:
			return nil, "", p.errf("missing {%% %s %%}", end)
		case tokenTag:
			if tok.val == end {
				return nil, tok.val, nil
			}
		}
	}
}
