// Package template renders the subset of Django's template language that
// the TPC-W pages are written in: plain HTML with {{ operand }} and
// {{ operand|filter:arg }} substitutions, {% if x %}…{% else %}…{% endif %},
// {% for x in xs %}…{% empty %}…{% endfor %} (with forloop.counter),
// {% include %}, and {% extends %}/{% block %}. The four filters are
// floatformat, title, urlencode and join. Anything else — another tag or
// filter, an operator, a chained filter, a comment — is a parse error,
// so a template outside the subset fails when it is loaded rather than
// rendering something different.
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
// Every {{ }} output is HTML-escaped, matching Django's autoescape
// default. A missing variable or attribute renders empty.
//
// A parsed Template is an immutable tree that any number of goroutines
// may render at once. A render appends to a []byte (RenderAppend; Render
// is its string view) and keeps everything else it needs — the Context's
// binding stack, the block overrides, one forloop value per nested loop,
// a scratch buffer for filter output — in a pooled render state, so that
// in steady state a page costs no allocation per node, per loop iteration
// or per cell. Loops index what handlers pass where it is: a []any, or a
// RowSet (Len plus Cell by row and column name, which *sqldb.ResultSet
// satisfies) through one re-pointed row reference.
package template

import (
	"fmt"
	"strings"
)

// tokenKind discriminates lexer output.
type tokenKind int

const (
	tokenText tokenKind = iota + 1 // raw template text
	tokenVar                       // {{ expression }}
	tokenTag                       // {% tag ... %}
	tokenEOF
)

// token is one lexical element with its 1-based source line.
type token struct {
	kind tokenKind
	val  string // inner content for var/tag, raw text for text
	line int
}

// nextDelim finds the earliest "{{", "{%" or "{#" at or after offset i,
// returning its position, or -1 if none remains. A lone '{' is text.
func nextDelim(src string, i int) int {
	for {
		j := strings.IndexByte(src[i:], '{')
		if j < 0 || i+j+1 >= len(src) {
			return -1
		}
		at := i + j
		if c := src[at+1]; c == '{' || c == '%' || c == '#' {
			return at
		}
		i = at + 1
	}
}

// lex splits template source into tokens. Delimiters inside string
// literals are not special-cased (as in Django, '}}' may not appear in a
// variable tag's string argument). "{#" is an error: comments are not
// part of the language.
func lex(name, src string) ([]token, error) {
	var (
		tokens []token
		line   = 1
		i      = 0
	)
	for {
		open := nextDelim(src, i)
		if open < 0 {
			break
		}
		if open > i {
			text := src[i:open]
			tokens = append(tokens, token{kind: tokenText, val: text, line: line})
			line += strings.Count(text, "\n")
		}
		kind, closer := tokenVar, "}}"
		switch src[open+1] {
		case '%':
			kind, closer = tokenTag, "%}"
		case '#':
			return nil, fmt.Errorf("template %s:%d: comments are not supported", name, line)
		}
		end := strings.Index(src[open+2:], closer)
		if end < 0 {
			return nil, fmt.Errorf("template %s:%d: unclosed %s", name, line, src[open:open+2])
		}
		inner := src[open+2 : open+2+end]
		tokens = append(tokens, token{kind: kind, val: strings.TrimSpace(inner), line: line})
		line += strings.Count(inner, "\n")
		i = open + 2 + end + len(closer)
	}
	if i < len(src) {
		tokens = append(tokens, token{kind: tokenText, val: src[i:], line: line})
	}
	return append(tokens, token{kind: tokenEOF, line: line}), nil
}
