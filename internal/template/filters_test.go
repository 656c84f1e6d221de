package template

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// applyFilter renders {{ v|<filter> }} with the given data.
func applyFilter(t *testing.T, pipeline string, data map[string]any) string {
	t.Helper()
	return render(t, "{{ "+pipeline+" }}", data)
}

func TestFilterTitleCapfirst(t *testing.T) {
	for v, want := range map[string]string{
		"the go book":        "The Go Book",
		"SCIENCE-FICTION":    "SCIENCE-FICTION",
		"  lead and\ttrail ": "Lead And Trail",
		"":                   "",
		"<b>":                "&lt;b&gt;",
	} {
		if got := applyFilter(t, "v|title", map[string]any{"v": v}); got != want {
			t.Errorf("title(%q) = %q, want %q", v, got, want)
		}
	}
	mustNotParse(t, "{{ v|capfirst }}")
}

func TestFilterFloatformat(t *testing.T) {
	tests := []struct {
		pipeline string
		v        any
		want     string
	}{
		{"v|floatformat", 34.23234, "34.2"},
		{"v|floatformat:3", 34.23234, "34.232"},
		{"v|floatformat:0", 34.6, "35"},
		{"v|floatformat:-2", 34.0, "34"},
		{"v|floatformat:-2", 34.26, "34.26"},
		{"v|floatformat:2", 100, "100.00"}, // TPC-W prices
		{"v|floatformat:2", 12.345, "12.35"},
		{"v|floatformat:-2", 12.5, "12.50"},
		{"v|floatformat", int64(3), "3.0"},
		{"v|floatformat:1", "7.25", "7.2"},
		{"v|floatformat:2", "n/a", ""},
		{"v|floatformat:2", nil, ""},
		{"v|floatformat:2", true, ""},
	}
	for _, tt := range tests {
		if got := applyFilter(t, tt.pipeline, map[string]any{"v": tt.v}); got != tt.want {
			t.Errorf("%s with %v = %q, want %q", tt.pipeline, tt.v, got, tt.want)
		}
	}
}

func TestFilterFirstLastJoin(t *testing.T) {
	rows := &tableRows{cols: []string{"n"}, cells: [][]any{{1}, {2}}}
	for _, tt := range []struct {
		pipeline string
		v        any
		want     string
	}{
		{"v|join:'-'", []any{"a", "b", "c"}, "a-b-c"},
		{"v|join", []any{"a", 2, 3.5, nil, true}, "a, 2, 3.5, , True"},
		{"v|join:'<'", []any{"a", "&"}, "a&lt;&amp;"},
		{"v|join", []any{}, ""},
		{"v|join", nil, ""},
		{"v|join:'+'", rows, "row 0+row 1"},
	} {
		if got := applyFilter(t, tt.pipeline, map[string]any{"v": tt.v}); got != tt.want {
			t.Errorf("%s over %#v = %q, want %q", tt.pipeline, tt.v, got, tt.want)
		}
	}
	mustNotParse(t, "{{ v|first }}", "{{ v|last }}")
}

func TestFilterCutUrlencode(t *testing.T) {
	if got := applyFilter(t, "v|urlencode", map[string]any{"v": "a b&c/d~é"}); got != "a%20b%26c/d~%C3%A9" {
		t.Fatalf("urlencode = %q", got)
	}
	mustNotParse(t, "{{ v|cut:' ' }}")
}

// TestFilterChaining: a {{ }} takes at most one filter.
func TestFilterChaining(t *testing.T) {
	mustNotParse(t, "{{ v|title|urlencode }}", "{{ v|floatformat:2|title }}", "{{ v|title| }}", "{{ v| }}")
}

func TestFilterArgFromVariable(t *testing.T) {
	data := map[string]any{"v": []any{1, 2}, "sep": " & ", "f": 2.5, "d": 2}
	if got := render(t, "{{ v|join:sep }} {{ f|floatformat:d }}", data); got != "1 &amp; 2 2.50" {
		t.Fatalf("variable args = %q", got)
	}
}

// TestFilterErrors: a filter that cannot apply fails the render with an
// error naming the line and the filter.
func TestFilterErrors(t *testing.T) {
	for _, src := range []string{
		`{{ v|floatformat:"x" }}`, // non-numeric argument
		`{{ v|title:1 }}`,         // unexpected argument
		`{{ v|urlencode:1 }}`,
		`{{ v|join }}`, // not iterable
		`{{ s|join }}`,
	} {
		err := renderErr(t, "\n"+src, map[string]any{"v": 1.5, "s": "abc"})
		if !strings.Contains(err.Error(), "line 2: filter ") {
			t.Errorf("%s: error %q does not name the line and the filter", src, err)
		}
	}
}

// The filters the tests below name are not part of the language: each
// is a parse error.

func TestFilterUpperLower(t *testing.T) {
	mustNotParse(t, "{{ v|upper }}", "{{ v|lower }}")
}

func TestFilterLength(t *testing.T) {
	mustNotParse(t, "{{ v|length }}")
}

func TestFilterDefault(t *testing.T) {
	mustNotParse(t, "{{ v|default:'fallback' }}", "{{ v|default_if_none:'x' }}")
}

func TestFilterTruncate(t *testing.T) {
	mustNotParse(t, "{{ v|truncatewords:3 }}", "{{ v|truncatechars:7 }}")
}

func TestFilterAdd(t *testing.T) {
	mustNotParse(t, "{{ v|add:3 }}")
}

func TestFilterYesnoPluralize(t *testing.T) {
	mustNotParse(t, "{{ v|yesno }}", "{{ n|pluralize }}")
}

func TestFilterDivisiblebyStringformat(t *testing.T) {
	mustNotParse(t, "{{ n|divisibleby:3 }}", "{{ n|stringformat:'04d' }}")
}

func TestFilterJust(t *testing.T) {
	mustNotParse(t, "{{ v|ljust:5 }}", "{{ v|rjust:4 }}")
}

func TestFilterLinebreaksbr(t *testing.T) {
	mustNotParse(t, "{{ v|linebreaksbr }}")
}

func TestFilterWordcount(t *testing.T) {
	mustNotParse(t, "{{ v|wordcount }}")
}

// Property: escaped output never holds a raw special character.
func TestEscapePropertyNoRawSpecials(t *testing.T) {
	f := func(s string) bool {
		out := string(appendEscaped(nil, s))
		return !strings.ContainsAny(out, "<>\"'") &&
			!strings.Contains(strings.ReplaceAll(out, "&amp;", ""), "&&")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHTMLEscapeFastPath: text with nothing to escape is copied as it is,
// into the room dst has.
func TestHTMLEscapeFastPath(t *testing.T) {
	s := "no specials at all"
	dst := make([]byte, 0, 64)
	if got := string(appendEscaped(dst, s)); got != s {
		t.Fatalf("fast path mangled %q -> %q", s, got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = appendEscaped(dst, s) }); n != 0 {
		t.Fatalf("escaping into a buffer with room allocates %v times", n)
	}
}

// TestFilterSetNames: the filter table holds the four filters the pages
// use, and nothing else.
func TestFilterSetNames(t *testing.T) {
	got := slices.Sorted(maps.Keys(filters))
	if want := []string{"floatformat", "join", "title", "urlencode"}; !slices.Equal(got, want) {
		t.Fatalf("filters = %v, want %v", got, want)
	}
}

// TestAppendFixedMatchesAppendFloat holds floatformat's shortcut to the
// strconv call it stands for: on edge cases (signed zeros, halves, the
// bound, subnormals, infinities, NaN) for every digits, and on random
// prices in cents and in mills, random values below the bound and random
// bit patterns for every digits the shortcut takes.
func TestAppendFixedMatchesAppendFloat(t *testing.T) {
	check := func(f float64, digits int) {
		got := string(appendFixed([]byte("dst:"), f, digits))
		want := string(strconv.AppendFloat([]byte("dst:"), f, 'f', digits, 64))
		if got != want {
			t.Fatalf("appendFixed(%v, %d) = %q, AppendFloat %q", f, digits, got, want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 0.125, 0.5, 1.5, 2.5, 0.005, 0.015, 1.005, 12.345, 34.23234, 100, 0.1, 0.7,
		1e-7, 5e-7, 123456.0000005, 999999999.995, 999999999.5, -999999999.995, math.Nextafter(1e9, 0),
		1e9, -1e9, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		for digits := -1; digits <= 8; digits++ {
			check(f, digits)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 50000 {
		digits := rng.Intn(7)
		check(float64(rng.Int63n(1e11))/100, digits)
		check(float64(rng.Int63n(1e12))/1000, digits)
		check((rng.Float64()*2-1)*1e9, digits)
		check(math.Float64frombits(rng.Uint64()), digits)
	}
}
