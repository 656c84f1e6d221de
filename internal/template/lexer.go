// Package template implements a Django-style template language: plain
// HTML with {{ variable }} substitutions, {% tag %} control structures
// ({% if %}, {% for %}, {% include %}, {% extends %}/{% block %},
// {% with %}), {# comments #}, and a pipeline of value filters.
//
// It exists so the reproduction can run the paper's TPC-W pages in the
// same shape the authors wrote them (Figures 2 and 3 of the paper), and
// so both rendering styles are supported:
//
//   - the conventional style, where a handler returns an already-rendered
//     string (baseline server), and
//   - the paper's deferred style, where a handler returns the template
//     name plus the data context and a separate rendering pool performs
//     the render (modified server).
//
// Variable output is HTML-escaped unless passed through the "safe" filter,
// matching Django's autoescape default.
//
// A parsed Template is an immutable tree that any number of goroutines
// may render at once. A render appends to a []byte (RenderAppend; Render
// is its string view) and keeps everything else it needs — the Context's
// binding stack, the block overrides, one forloop value per nested loop,
// a scratch buffer for filter output — in a pooled render state, so that
// in steady state a page costs no allocation per node, per loop iteration
// or per cell. Loops index their iterable where it is: slices of maps,
// of any and of strings directly, a RowSet (Len plus Cell by row and
// column name, which *sqldb.ResultSet satisfies) through one re-pointed
// row reference, anything else through reflection.
package template

import (
	"fmt"
	"strings"
)

// tokenKind discriminates lexer output.
type tokenKind int

const (
	tokenText    tokenKind = iota + 1 // raw template text
	tokenVar                          // {{ expression }}
	tokenTag                          // {% tag ... %}
	tokenComment                      // {# ... #}
	tokenEOF
)

func (k tokenKind) String() string {
	switch k {
	case tokenText:
		return "text"
	case tokenVar:
		return "variable"
	case tokenTag:
		return "tag"
	case tokenComment:
		return "comment"
	case tokenEOF:
		return "eof"
	}
	return "unknown"
}

// token is one lexical element with its 1-based source line.
type token struct {
	kind tokenKind
	val  string // inner content for var/tag/comment, raw text for text
	line int
}

// nextDelim finds the earliest template delimiter ({{, {%, or {#) at or
// after offset i, returning its position and kind, or -1 if none remains.
func nextDelim(src string, i int) (pos int, kind tokenKind) {
	pos = -1
	for {
		j := strings.IndexByte(src[i:], '{')
		if j < 0 || i+j+1 >= len(src) {
			return -1, 0
		}
		at := i + j
		switch src[at+1] {
		case '{':
			return at, tokenVar
		case '%':
			return at, tokenTag
		case '#':
			return at, tokenComment
		}
		i = at + 1
	}
}

// lex splits template source into tokens. Delimiters inside string
// literals are not special-cased (as in Django, '}}' may not appear in a
// variable tag's string argument).
func lex(name, src string) ([]token, error) {
	var (
		tokens []token
		line   = 1
		i      = 0
	)
	for i < len(src) {
		open, kind := nextDelim(src, i)
		if open < 0 {
			break
		}
		if open > i {
			text := src[i:open]
			tokens = append(tokens, token{kind: tokenText, val: text, line: line})
			line += strings.Count(text, "\n")
		}
		var closer string
		switch kind {
		case tokenVar:
			closer = "}}"
		case tokenTag:
			closer = "%}"
		case tokenComment:
			closer = "#}"
		}
		end := strings.Index(src[open+2:], closer)
		if end < 0 {
			return nil, fmt.Errorf("template %s:%d: unclosed %s", name, line, kind)
		}
		inner := src[open+2 : open+2+end]
		tokens = append(tokens, token{kind: kind, val: strings.TrimSpace(inner), line: line})
		line += strings.Count(inner, "\n")
		i = open + 2 + end + len(closer)
	}
	if i < len(src) {
		tokens = append(tokens, token{kind: tokenText, val: src[i:], line: line})
	}
	tokens = append(tokens, token{kind: tokenEOF, line: line})
	return tokens, nil
}
