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

// tags maps each tag keyword that opens a tag to the keywords that split
// and close its body; include and extends have no body. These ten words
// are every tag the parser accepts.
var tags = map[string]struct{ mid, end string }{
	"if":      {"else", "endif"},
	"for":     {"empty", "endfor"},
	"block":   {"", "endblock"},
	"include": {},
	"extends": {},
}

// parser consumes the token stream.
type parser struct {
	name    string
	tokens  []token
	pos     int
	blocks  map[string]nodeList
	extends string
}

func parse(name, src string) (*Template, error) {
	tokens, err := lex(name, src)
	if err != nil {
		return nil, err
	}
	p := &parser{name: name, tokens: tokens, blocks: map[string]nodeList{}}
	nodes, _, err := p.parseNodes("", "")
	if err != nil {
		return nil, err
	}
	return &Template{nodes: nodes, extends: p.extends, blocks: p.blocks}, nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("template %s:%d: %s", p.name, p.tokens[p.pos-1].line, fmt.Sprintf(format, args...))
}

// parseNodes parses until EOF ("" is returned) or until the tag {% mid %}
// or {% end %}, whose keyword is returned.
func (p *parser) parseNodes(mid, end string) (nodeList, string, error) {
	var nodes nodeList
	for {
		tok := p.tokens[p.pos]
		p.pos++
		switch tok.kind {
		case tokenEOF:
			return nodes, "", nil
		case tokenText:
			nodes = append(nodes, textNode(tok.val))
		case tokenVar:
			n, err := parseVar(tok.val)
			if err != nil {
				return nil, "", p.errf("%v", err)
			}
			n.line = tok.line
			nodes = append(nodes, n)
		case tokenTag:
			if end != "" && (tok.val == end || mid != "" && tok.val == mid) {
				return nodes, tok.val, nil
			}
			n, err := p.parseTag(tok.val)
			if err != nil {
				return nil, "", err
			}
			if n != nil {
				nodes = append(nodes, n)
			}
		}
	}
}

// parseBody parses the body of the tag word opened, and the part after
// its middle keyword if that appears, through to its end keyword.
func (p *parser) parseBody(word string) (body, alt nodeList, err error) {
	t := tags[word]
	body, stop, err := p.parseNodes(t.mid, t.end)
	if err == nil && stop != "" && stop == t.mid {
		alt, stop, err = p.parseNodes("", t.end)
	}
	if err == nil && stop != t.end {
		err = p.errf("unterminated {%% %s %%}", word)
	}
	return body, alt, err
}

// parseTag parses the tag whose content is src, with its body.
func (p *parser) parseTag(src string) (node, error) {
	word, rest, _ := strings.Cut(src, " ")
	rest = strings.TrimSpace(rest)
	if _, ok := tags[word]; !ok {
		return nil, p.errf("unknown tag %q", word)
	}
	switch word {
	case "if":
		cond, err := p.operand(rest)
		if err != nil {
			return nil, err
		}
		body, alt, err := p.parseBody(word)
		return &ifNode{cond: cond, body: body, elseBody: alt}, err
	case "for":
		f := strings.Fields(rest)
		if len(f) != 3 || f[1] != "in" || !isName(f[0]) {
			return nil, p.errf("malformed for tag %q: want {%% for x in xs %%}", rest)
		}
		iterable, err := p.operand(f[2])
		if err != nil {
			return nil, err
		}
		body, empty, err := p.parseBody(word)
		return &forNode{name: f[0], iterable: iterable, body: body, empty: empty}, err
	case "include":
		name, err := p.operand(rest)
		return &includeNode{name: name}, err
	case "extends":
		if p.extends != "" {
			return nil, p.errf("multiple {%% extends %%} tags")
		}
		if p.extends = strings.Trim(rest, "\"'"); p.extends == "" {
			return nil, p.errf("extends needs a template name")
		}
		return nil, nil
	default: // block
		if !isName(rest) {
			return nil, p.errf("bad block name %q", rest)
		}
		if _, dup := p.blocks[rest]; dup {
			return nil, p.errf("duplicate block %q", rest)
		}
		body, _, err := p.parseBody(word)
		p.blocks[rest] = body
		return &blockNode{name: rest, body: body}, err
	}
}

// operand parses src, which must be exactly one operand.
func (p *parser) operand(src string) (expr, error) {
	e, rest, err := parseOperand(src)
	if err == nil && strings.TrimSpace(rest) != "" {
		err = fmt.Errorf("unexpected %q after the operand", strings.TrimSpace(rest))
	}
	if err != nil {
		return expr{}, p.errf("%v", err)
	}
	return e, nil
}
