package sqldb

import (
	"fmt"
	"strings"
	"time"
)

// Value is a single column value: nil, int64, float64, string, or
// time.Time. The engine normalizes integer inputs to int64.
type Value any

// normalize converts supported Go values into canonical engine values.
func normalize(v any) (Value, error) {
	switch t := v.(type) {
	case nil, int64, float64, string, time.Time:
		return t, nil
	case int:
		return int64(t), nil
	case int32:
		return int64(t), nil
	case int16:
		return int64(t), nil
	case int8:
		return int64(t), nil
	case uint:
		return int64(t), nil
	case uint32:
		return int64(t), nil
	case uint64:
		return int64(t), nil
	case float32:
		return float64(t), nil
	case []byte:
		return string(t), nil
	default:
		return nil, fmt.Errorf("sqldb: unsupported value type %T", v)
	}
}

// compare orders two values: -1, 0, or +1. nil sorts first. Numeric types
// compare numerically across int64/float64; strings lexically; times
// chronologically. Mismatched types report an error.
func compare(a, b Value) (int, error) {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0, nil
		case a == nil:
			return -1, nil
		default:
			return 1, nil
		}
	}
	switch av := a.(type) {
	case int64:
		switch bv := b.(type) {
		case int64:
			return cmpOrdered(av, bv), nil
		case float64:
			return cmpOrdered(float64(av), bv), nil
		}
	case float64:
		switch bv := b.(type) {
		case int64:
			return cmpOrdered(av, float64(bv)), nil
		case float64:
			return cmpOrdered(av, bv), nil
		}
	case string:
		if bv, ok := b.(string); ok {
			return strings.Compare(av, bv), nil
		}
	case time.Time:
		if bv, ok := b.(time.Time); ok {
			switch {
			case av.Equal(bv):
				return 0, nil
			case av.Before(bv):
				return -1, nil
			default:
				return 1, nil
			}
		}
	}
	return 0, fmt.Errorf("sqldb: cannot compare %T with %T", a, b)
}

func cmpOrdered[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// valuesEqual reports whether two values compare equal; incomparable
// types are simply unequal. Join keys and index entries are nearly always
// two integers or two strings, which are settled without compare's double
// type switch.
func valuesEqual(a, b Value) bool {
	switch av := a.(type) {
	case int64:
		if bv, ok := b.(int64); ok {
			return av == bv
		}
	case string:
		if bv, ok := b.(string); ok {
			return av == bv
		}
	}
	c, err := compare(a, b)
	return err == nil && c == 0
}

// asciiLower maps 'A'..'Z' to 'a'..'z' and every other byte to itself.
var asciiLower = func() (t [256]byte) {
	for i := range t {
		t[i] = byte(i)
	}
	for c := 'A'; c <= 'Z'; c++ {
		t[c] = byte(c) + ('a' - 'A')
	}
	return t
}()

// likePattern is a SQL LIKE pattern prepared for matching row after row:
// '%' matches any run, '_' any single byte, and matching is ASCII
// case-insensitive, as in MySQL's default collation. The pattern is
// folded once, when it is set; matching folds only the subject and
// allocates nothing. The zero value is the empty pattern.
type likePattern struct {
	src      string // the pattern as given
	folded   []byte // src with 'A'..'Z' lowered
	contains bool   // src is %word% with no other wildcard: a substring search
}

// set prepares pattern, reusing p's buffer.
func (p *likePattern) set(pattern string) {
	p.src, p.folded = pattern, p.folded[:0]
	for i := 0; i < len(pattern); i++ {
		p.folded = append(p.folded, asciiLower[pattern[i]])
	}
	n := len(pattern)
	p.contains = n >= 2 && pattern[0] == '%' && pattern[n-1] == '%' &&
		!strings.ContainsAny(pattern[1:n-1], "%_")
}

func (p *likePattern) match(s string) bool {
	pattern := p.folded
	if p.contains {
		return containsFold(s, pattern[1:len(pattern)-1])
	}
	// Iterative matching with backtracking on the last '%'.
	si, pi := 0, 0
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '%':
			star, starSi = pi, si
			pi++
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == asciiLower[s[si]]):
			si++
			pi++
		case star >= 0:
			pi = star + 1
			starSi++
			si = starSi
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// containsFold reports whether s, folded, contains the folded word.
func containsFold(s string, word []byte) bool {
	if len(word) == 0 {
		return true
	}
	for i := 0; i+len(word) <= len(s); i++ {
		if asciiLower[s[i]] != word[0] {
			continue
		}
		j := 1
		for j < len(word) && asciiLower[s[i+j]] == word[j] {
			j++
		}
		if j == len(word) {
			return true
		}
	}
	return false
}

// asNumber coerces a value to float64 for SUM.
func asNumber(v Value) (float64, bool) {
	switch t := v.(type) {
	case int64:
		return float64(t), true
	case float64:
		return t, true
	default:
		return 0, false
	}
}

// FormatValue renders a value for diagnostics and harness output.
func FormatValue(v Value) string {
	switch t := v.(type) {
	case nil:
		return "NULL"
	case string:
		return t
	case time.Time:
		return t.Format(time.RFC3339)
	default:
		return fmt.Sprintf("%v", t)
	}
}
