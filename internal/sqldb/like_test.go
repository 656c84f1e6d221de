package sqldb

import (
	"strings"
	"testing"
)

// likeMatch is the matcher the engine used until patterns were folded
// once per execution (likePattern): it lowers the pattern byte under
// comparison on every step of every row. It stays here as the reference
// for TestLikeMatch, FuzzLikeMatch and the reference executor of
// equiv_test.go. One known defect, fixed in likePattern: it tries the
// literal comparison before the wildcard, so a '%' in the subject that
// lines up with a '%' in the pattern is consumed as a literal ("%x"
// LIKE "%" is false).
func likeMatch(s, pattern string) bool {
	// Iterative matching with backtracking on the last '%'.
	si, pi := 0, 0
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || lowerByte(pattern[pi]) == lowerByte(s[si])):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star, starSi = pi, si
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

func lowerByte(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

func TestLikeMatch(t *testing.T) {
	tests := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "HELLO", true}, // case-insensitive, either side
		{"HeLLo", "hEllO", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "%ELL%", true},
		{"HELLO", "%ell%", true},
		{"hello", "%elo%", false},
		{"hello", "h_llo", true},
		{"hello", "h_go", false},
		{"hello", "%", true},
		{"hello", "%%", true},
		{"", "%", true},
		{"", "%%", true},
		{"", "_", false},
		{"", "", true},
		{"a", "", false},
		{"abc", "a%c", true},
		{"abc", "a%b", false},
		{"abc", "%%c", true},
		{"abc", "a%%", true},
		{"abc", "%a%c%", true},
		{"abc", "%_%", true},
		{"abc", "%b_%", true},
		{"abc", "%c_%", false},
		{"ab", "%ab%", true},
		{"a", "%ab%", false},
		{"aab", "%ab%", true},
		{"aXbXc", "a%b%c", true},
		{"the go programming language", "%go%", true},
		// Only ASCII letters fold: other bytes match themselves.
		{"caf\xc9", "caf\xc9", true},
		{"caf\xc9", "caf\xe9", false},
		{"[x]", "{x}", false}, // '[' and '{' differ by 0x20 too, but are not letters
		{"@", "`", false},
	}
	for _, tt := range tests {
		var p likePattern
		p.set(tt.pat)
		if got := p.match(tt.s); got != tt.want {
			t.Errorf("%q LIKE %q = %v, want %v", tt.s, tt.pat, got, tt.want)
		}
		if ref := likeMatch(tt.s, tt.pat); ref != tt.want {
			t.Errorf("reference: %q LIKE %q = %v, want %v", tt.s, tt.pat, ref, tt.want)
		}
	}
	// The reference's defect (see likeMatch), not carried over.
	var p likePattern
	for _, tt := range [][2]string{{"%x", "%"}, {"50% off", "%off%"}, {"a%b", "a%b"}} {
		if p.set(tt[1]); !p.match(tt[0]) {
			t.Errorf("%q LIKE %q = false", tt[0], tt[1])
		}
	}
	// One likePattern serves pattern after pattern.
	if p.set("%B%"); !p.match("abc") || p.match("xyz") {
		t.Error("reused pattern: %B%")
	}
	if p.set(""); p.match("abc") || !p.match("") {
		t.Error("reused pattern: empty")
	}
}

// TestLikeOperands pins what surrounds the matcher: NOT LIKE negates a
// match, and a NULL or non-string operand on either side is false under
// both, as before.
func TestLikeOperands(t *testing.T) {
	_, c := newTestDB(t)
	mustExec(t, c, "INSERT INTO book (b_id, b_title, b_a_id, b_price, b_stock) VALUES (5, NULL, 2, 1.5, 1)")
	for _, tt := range []struct {
		where string
		args  []any
		want  int
	}{
		{"b_title LIKE '%taocp%'", nil, 2},
		{"b_title NOT LIKE '%taocp%'", nil, 2},
		{"b_title LIKE ?", []any{"the%"}, 2},
		{"b_title LIKE ? AND b_title LIKE ?", []any{"%programming%", "%GO%"}, 1},
		{"b_title LIKE ? OR b_title LIKE ?", []any{"%unix%", "%GO%"}, 2},
		{"b_title LIKE ?", []any{nil}, 0},
		{"b_title NOT LIKE ?", []any{nil}, 0},
		{"b_title LIKE ?", []any{7}, 0},
		{"b_title NOT LIKE ?", []any{7}, 0},
		{"b_stock LIKE '%1%'", nil, 0},
		{"b_stock NOT LIKE '%1%'", nil, 0},
		{"b_title LIKE '%'", nil, 4}, // the NULL title matches nothing
	} {
		rs := mustQuery(t, c, "SELECT b_id FROM book WHERE "+tt.where, tt.args...)
		if rs.Len() != tt.want {
			t.Errorf("WHERE %s %v: %d rows, want %d", tt.where, tt.args, rs.Len(), tt.want)
		}
	}
}

// FuzzLikeMatch is the differential: likePattern against the matcher it
// replaced, on every subject the old one got right.
func FuzzLikeMatch(f *testing.F) {
	for _, seed := range [][2]string{
		{"hello", "%ELL%"}, {"THE LOST CITY #12", "%the%"}, {"abc", "a_c"}, {"abc", "%%_%"},
		{"", ""}, {"aXbXc", "a%b%c"}, {"caf\xc9", "%\xc9"}, {"mississippi", "%iss%ip_i"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, s, pattern string) {
		var p likePattern
		p.set(s) // an execution reuses one: nothing of the last pattern may stay
		p.set(pattern)
		got := p.match(s)
		if strings.Contains(s, "%") {
			return // the reference's defect; no panic is all that is asked
		}
		if want := likeMatch(s, pattern); got != want {
			t.Fatalf("%q LIKE %q = %v, reference %v", s, pattern, got, want)
		}
	})
}
