package sqldb

import (
	"fmt"
	"strings"
)

// sqlTokenKind discriminates SQL lexer output.
type sqlTokenKind int

const (
	tokIdent   sqlTokenKind = iota + 1 // table and column names
	tokKeyword                         // an entry of keywords
	tokNumber
	tokString
	tokPunct // , ( ) * ? and runs of < > = !
	tokEnd
)

type sqlToken struct {
	kind sqlTokenKind
	text string // names as written; keywords as spelled in keywords; strings unquoted
	pos  int
}

// keywords is every keyword of the grammar: the words of the statements
// internal/tpcw issues, and EXPLAIN. A word matching one, in any case, is
// that keyword; every other word is a name, so a word of SQL the grammar
// lacks (OR, COUNT, OFFSET, ...) reaches the parser as a name and fails
// there, quoted in the error.
var keywords = []string{
	"SELECT", "FROM", "JOIN", "ON", "WHERE", "AND", "LIKE", "GROUP", "BY",
	"ORDER", "ASC", "DESC", "LIMIT", "SUM", "AS", "INSERT", "INTO", "VALUES",
	"NULL", "UPDATE", "SET", "DELETE", "EXPLAIN",
}

// sqlLexer produces tokens from a SQL string.
type sqlLexer struct {
	src    string
	pos    int
	tokens []sqlToken
}

func lexSQL(src string) ([]sqlToken, error) {
	l := &sqlLexer{src: src}
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		l.tokens = append(l.tokens, tok)
		if tok.kind == tokEnd {
			return l.tokens, nil
		}
	}
}

func (l *sqlLexer) next() (sqlToken, error) {
	for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return sqlToken{kind: tokEnd, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		for _, kw := range keywords {
			if strings.EqualFold(word, kw) {
				return sqlToken{kind: tokKeyword, text: kw, pos: start}, nil
			}
		}
		return sqlToken{kind: tokIdent, text: word, pos: start}, nil
	case c >= '0' && c <= '9' || c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		l.pos++
		for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
			l.pos++
		}
		return sqlToken{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
	case c == '\'':
		var sb strings.Builder
		l.pos++
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == '\'' {
				// '' escapes a quote.
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return sqlToken{kind: tokString, text: sb.String(), pos: start}, nil
			}
			sb.WriteByte(ch)
			l.pos++
		}
		return sqlToken{}, fmt.Errorf("sqldb: unterminated string at byte %d in %q", start, l.src)
	case strings.IndexByte("<>=!", c) >= 0:
		// An operator is the whole run, so that <=, != and the like reach
		// the parser, which knows = and > only, as one token it can name.
		for l.pos < len(l.src) && strings.IndexByte("<>=!", l.src[l.pos]) >= 0 {
			l.pos++
		}
		return sqlToken{kind: tokPunct, text: l.src[start:l.pos], pos: start}, nil
	case strings.IndexByte(",()*?", c) >= 0:
		l.pos++
		return sqlToken{kind: tokPunct, text: l.src[start:l.pos], pos: start}, nil
	default:
		return sqlToken{}, fmt.Errorf("sqldb: unexpected character %q at byte %d in %q", c, start, l.src)
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isIdentStart(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

func isIdentByte(c byte) bool {
	return isIdentStart(c) || '0' <= c && c <= '9'
}
