package template

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// expr is an operand: a string or number literal, or a dotted variable
// path, which evaluates to nil where a step is missing.
type expr struct {
	path []string // nil for a literal
	lit  any
}

func (e expr) eval(ctx *Context) any {
	if e.path == nil {
		return e.lit
	}
	v, _ := ctx.Lookup(e.path[0])
	for _, attr := range e.path[1:] {
		v = resolveAttr(v, attr)
	}
	return v
}

// parseOperand parses the operand at the start of src, after any space,
// and returns what follows it.
func parseOperand(src string) (expr, string, error) {
	src = strings.TrimSpace(src)
	if src == "" {
		return expr{}, "", errors.New("missing operand")
	}
	c, end := src[0], 1
	switch {
	case c == '"' || c == '\'':
		if end = strings.IndexByte(src[1:], c) + 1; end == 0 {
			return expr{}, "", fmt.Errorf("unterminated string in %q", src)
		}
		return expr{lit: src[1:end]}, src[end+1:], nil
	case isWordStart(c):
		for end < len(src) && isWordByte(src[end]) {
			end++
		}
		parts := strings.Split(src[:end], ".")
		if slices.Contains(parts, "") {
			return expr{}, "", fmt.Errorf("malformed variable path %q", src[:end])
		}
		return expr{path: parts}, src[end:], nil
	case '0' <= c && c <= '9' || c == '-':
		for end < len(src) && ('0' <= src[end] && src[end] <= '9' || src[end] == '.') {
			end++
		}
		var lit any
		var err error
		if num := src[:end]; strings.Contains(num, ".") {
			lit, err = strconv.ParseFloat(num, 64)
		} else {
			lit, err = strconv.Atoi(num)
		}
		if err != nil {
			return expr{}, "", fmt.Errorf("bad number %q", src[:end])
		}
		return expr{lit: lit}, src[end:], nil
	}
	return expr{}, "", fmt.Errorf("unexpected %q in %q", c, src)
}

// parseVar parses the inside of {{ }}: an operand, then at most one
// filter, which may take one operand after a colon.
func parseVar(src string) (*varNode, error) {
	e, rest, err := parseOperand(src)
	if err != nil {
		return nil, err
	}
	n := &varNode{e: e}
	if rest = strings.TrimSpace(rest); rest == "" {
		return n, nil
	}
	if rest[0] != '|' {
		return nil, fmt.Errorf("unexpected %q in %q", rest, src)
	}
	rest = strings.TrimSpace(rest[1:])
	k := strings.IndexAny(rest, " \t\r\n:|")
	if k < 0 {
		k = len(rest)
	}
	n.name, rest = rest[:k], strings.TrimSpace(rest[k:])
	if n.filter = filters[n.name]; n.filter == nil {
		return nil, fmt.Errorf("unknown filter %q", n.name)
	}
	if strings.HasPrefix(rest, ":") {
		if n.arg, rest, err = parseOperand(rest[1:]); err != nil {
			return nil, err
		}
		n.hasArg, rest = true, strings.TrimSpace(rest)
	}
	if strings.HasPrefix(rest, "|") {
		return nil, fmt.Errorf("one filter per {{ }}: %q chains two", src)
	}
	if rest != "" {
		return nil, fmt.Errorf("unexpected %q in %q", rest, src)
	}
	return n, nil
}

func isWordStart(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

// isWordByte includes '.' so a dotted path scans as one operand.
func isWordByte(c byte) bool {
	return isWordStart(c) || '0' <= c && c <= '9' || c == '.'
}

// isName reports whether s is a name a tag can bind: one word, no dot.
func isName(s string) bool {
	e, rest, err := parseOperand(s)
	return err == nil && rest == "" && len(e.path) == 1
}
