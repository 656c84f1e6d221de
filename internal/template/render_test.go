package template

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// tableRows is the smallest RowSet: named columns over cells.
type tableRows struct {
	cols  []string
	cells [][]any
}

func (r *tableRows) Len() int { return len(r.cells) }

func (r *tableRows) Cell(row int, column string) any {
	for i, c := range r.cols {
		if c == column {
			return r.cells[row][i]
		}
	}
	return nil
}

// shapeTemplates put one iterable, rows, through everything a loop
// offers. Each must render the same bytes whichever shape rows has.
var shapeTemplates = []string{
	`{% for r in rows %}{{ forloop.counter }}:{{ r.a }},{{ r.b }},{{ r.nope }};{% empty %}none{% endfor %}`,
	`{% for r in rows %}{% for q in rows %}{{ forloop.counter }}:{{ r.a }}{{ q.b }} {% endfor %}{{ forloop.counter }}/{% endfor %}`,
	`{% for r in rows %}{% if r.a %}[{{ r.a }}]{% else %}-{% endif %}{% for forloop in rows %}{{ forloop.counter }}{% endfor %};{% endfor %}`,
	`{% if rows %}some{% else %}none{% endif %} {% for r in rows %}{{ r.a|floatformat:2 }} {{ r.b|title }} {{ r.a|urlencode }} {{ r.c|join:"+" }}|{% endfor %}`,
	`{% for r in rows %}{% include "cell.html" %}{% endfor %}`,
}

// TestLoopShapesAgree is the shape-equivalence property: the same rows as
// a []any of maps and as a RowSet render identically.
func TestLoopShapesAgree(t *testing.T) {
	cols := []string{"a", "b", "c"}
	words := []string{"plain", "two words", `<a href="x">&'`, "héllo wörld", "  padded  ", ""}
	cell := func(rng *rand.Rand) any {
		switch rng.Intn(6) {
		case 0:
			return nil
		case 1:
			return int64(rng.Intn(2000) - 1000)
		case 2:
			return float64(rng.Intn(100000)) / 100
		case 3:
			return rng.Intn(2) == 0
		default:
			return words[rng.Intn(len(words))]
		}
	}
	set := NewSet()
	set.Add("cell.html", `<{{ r.a }}:{{ forloop.counter }}>`)
	for i, src := range shapeTemplates {
		set.Add(fmt.Sprint("shape", i), src)
	}
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := &tableRows{cols: cols}
		var maps []any
		for n := rng.Intn(6); n > 0; n-- {
			list := []any{cell(rng), cell(rng)}[:rng.Intn(3)]
			cells := []any{cell(rng), cell(rng), list}
			rows.cells = append(rows.cells, cells)
			maps = append(maps, map[string]any{"a": cells[0], "b": cells[1], "c": list})
		}
		for i := range shapeTemplates {
			name := fmt.Sprint("shape", i)
			want, err := set.Render(name, map[string]any{"rows": maps})
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, name, err)
			}
			got, err := set.Render(name, map[string]any{"rows": rows})
			if err != nil {
				t.Fatalf("seed %d, %s as a RowSet: %v", seed, name, err)
			}
			if got != want {
				t.Errorf("seed %d, %s: as a RowSet\n got %q\nwant %q (as []any)", seed, name, got, want)
			}
		}
	}
}

// TestLoopOverOtherShapes: a loop and join walk a []any or a RowSet and
// treat nil as empty; every other shape, other slices included, fails
// the render rather than reaching for reflection.
func TestLoopOverOtherShapes(t *testing.T) {
	src := `{% for x in v %}{{ forloop.counter }}{{ x }},{% empty %}-{% endfor %}`
	if got := render(t, src, map[string]any{"v": nil}); got != "-" {
		t.Errorf("loop over nil: got %q", got)
	}
	ints := [3]int{7, 8, 9}
	for _, v := range []any{
		[]string{"a", "b"}, []int{1, 2, 3}, &ints, "héy", map[string]any{"a": 1},
		[]map[string]any{{"a": 1}}, 42, (*[3]int)(nil),
	} {
		for _, src := range []string{src, `{{ v|join }}`} {
			if err := renderErr(t, src, map[string]any{"v": v}); !strings.Contains(err.Error(), "cannot iterate") {
				t.Errorf("%s over %T: %v", src, v, err)
			}
		}
	}
}

// TestStringsCountRunes: the filters that rewrite a string work on its
// bytes but never cut a character in half, and a string is not a list
// of characters to loop over.
func TestStringsCountRunes(t *testing.T) {
	data := map[string]any{"v": "héllo wörld", "w": "日本語", "l": []any{"日", "本語"}, "e": ""}
	for _, tt := range []struct{ src, want string }{
		{`{{ v|title }}`, "Héllo Wörld"},
		{`{{ w|title }}`, "日本語"},
		{`{{ l|join:"·" }}`, "日·本語"},
		{`{{ w|urlencode }}`, "%E6%97%A5%E6%9C%AC%E8%AA%9E"},
		{`[{{ e|title }}]`, "[]"},
	} {
		got := render(t, tt.src, data)
		if got != tt.want {
			t.Errorf("%s = %q, want %q", tt.src, got, tt.want)
		}
		if !utf8.ValidString(got) {
			t.Errorf("%s emitted invalid UTF-8: %q", tt.src, got)
		}
	}
	if err := renderErr(t, `{% for c in w %}{{ c }}{% endfor %}`, data); !strings.Contains(err.Error(), "cannot iterate") {
		t.Errorf("loop over a string: %v", err)
	}
}

type stringer struct{}

func (stringer) String() string { return `<s id="1">` }

// TestAppendValueMatchesStringify: {{ v }}'s direct formatting writes
// exactly the escaped Stringify(v) for every type it short-cuts.
func TestAppendValueMatchesStringify(t *testing.T) {
	odd := time.FixedZone(`<&>`, 3600)
	for _, v := range []any{
		nil, "", "plain", `<a href="x">&'`, "héllo", true, false,
		0, -7, 1 << 40, int64(math.MinInt64), int32(5), uint(9),
		0.0, 5.0, -3.25, 1e21, 1e-7, math.Inf(1), math.NaN(), float32(2.5),
		time.Date(2008, 6, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2008, 6, 1, 1, 2, 3, 456789, odd),
		time.Now(), time.Time{},
		stringer{}, errors.New("<e>"), []int{1, 2}, map[string]any{"k": "<"},
	} {
		want := string(appendEscaped(nil, Stringify(v)))
		if got := string(appendValue([]byte("x"), v)); got != "x"+want {
			t.Errorf("appendValue(%#v) = %q, want %q", v, got[1:], want)
		}
	}
}

// TestAppendFiltersMatchTheirFilterFunc: each filter, written in append
// form, appends after what dst holds exactly what a reference string
// function gives: Django's title (word by word), Python's quote with
// "/" safe, strconv's fixed-point formatting and strings.Join.
func TestAppendFiltersMatchTheirFilterFunc(t *testing.T) {
	titleRef := func(s string) string {
		words := strings.Fields(s)
		for i, w := range words {
			if c := w[0]; 'a' <= c && c <= 'z' {
				words[i] = string(c-'a'+'A') + w[1:]
			}
		}
		return strings.Join(words, " ")
	}
	urlRef := func(s string) string {
		return strings.NewReplacer("+", "%20", "%2F", "/").Replace(url.QueryEscape(s))
	}
	apply := func(name string, v, arg any, hasArg bool) string {
		t.Helper()
		out, err := filters[name]([]byte("dst:"), v, arg, hasArg)
		if err != nil || !strings.HasPrefix(string(out), "dst:") {
			t.Fatalf("%s(%#v, %#v): %q, %v", name, v, arg, out, err)
		}
		return string(out[len("dst:"):])
	}
	for _, s := range []string{
		"", " ", "arts", "SCIENCE-FICTION", "two words", "  lead and trail  ", "tab\tand\nnewline",
		"nbsp\u00a0sep", "élan vital", "<b>&amp;</b> 'q'", "\xff\xfe bad utf8", "a+b/c~d", "a b",
	} {
		if got, want := apply("title", s, nil, false), titleRef(s); got != want {
			t.Errorf("title(%q) = %q, want %q", s, got, want)
		}
		if got, want := apply("urlencode", s, nil, false), urlRef(s); got != want {
			t.Errorf("urlencode(%q) = %q, want %q", s, got, want)
		}
	}
	for _, f := range []float64{0, 12.345, -3.5, 1e9, 0.125} {
		for d := 0; d < 4; d++ {
			if got, want := apply("floatformat", f, d, true), strconv.FormatFloat(f, 'f', d, 64); got != want {
				t.Errorf("floatformat(%v, %d) = %q, want %q", f, d, got, want)
			}
		}
	}
	parts := []any{"a", "b c", ""}
	for _, sep := range []string{", ", "", "|"} {
		if got, want := apply("join", parts, sep, true), strings.Join([]string{"a", "b c", ""}, sep); got != want {
			t.Errorf("join(%q) = %q, want %q", sep, got, want)
		}
	}
}

// TestRenderAppend: the page goes onto the end of dst; a render that
// fails half-way down leaves dst as it was given; and a buffer recycled
// after a failure renders intact.
func TestRenderAppend(t *testing.T) {
	s := NewSet()
	s.Add("base", `<html>{% block body %}{% endblock %}</html>`)
	s.Add("ok", `{% extends "base" %}{% block body %}{% for r in rows %}{{ r.n }},{% endfor %}{% endblock %}`)
	s.Add("broken", `{% extends "base" %}{% block body %}{% for r in rows %}{{ r.n }},{% if r.last %}{{ r.n|join }}{% endif %}{% endfor %}{% endblock %}`)
	rows := &tableRows{cols: []string{"n", "last"}, cells: [][]any{{int64(1), false}, {int64(2), false}, {int64(3), true}}}
	data := map[string]any{"rows": rows}
	const page = "<html>1,2,3,</html>"

	buf := append(make([]byte, 0, 256), "prefix:"...)
	out, err := s.RenderAppend(buf, "ok", data)
	if err != nil || string(out) != "prefix:"+page {
		t.Fatalf("RenderAppend = %q, %v", out, err)
	}
	if &out[0] != &buf[0] {
		t.Error("RenderAppend reallocated a buffer with room for the page")
	}

	out, err = s.RenderAppend(buf, "broken", data)
	if err == nil || !strings.Contains(err.Error(), "cannot iterate") {
		t.Fatalf("broken template: err = %v", err)
	}
	if string(out) != "prefix:" || len(out) != len(buf) {
		t.Fatalf("after a failed render dst is %q, want it unextended", out)
	}
	if _, err := s.RenderAppend(nil, "missing", data); err == nil {
		t.Fatal("missing template rendered")
	}

	// The next renders, on the recycled buffer and through the string
	// view, see nothing of the failed one.
	for i := 0; i < 3; i++ {
		out, err = s.RenderAppend(out[:0], "ok", data)
		if err != nil || string(out) != page {
			t.Fatalf("render %d after failure = %q, %v", i, out, err)
		}
		if got, err := s.Render("ok", data); err != nil || got != page {
			t.Fatalf("Render %d after failure = %q, %v", i, got, err)
		}
	}
}

// TestIncludeDoesNotSeeIncluderOverrides: an included template resolves
// its blocks against its own inheritance chain only, and the includer's
// chain is back in force after it.
func TestIncludeDoesNotSeeIncluderOverrides(t *testing.T) {
	s := NewSet()
	s.Add("base", `[{% block a %}base-a{% endblock %}|{% block b %}base-b{% endblock %}]`)
	s.Add("page", `{% extends "base" %}{% block a %}page-a {% include "part" %} {% include "plain" %}{% endblock %}{% block b %}page-b{% endblock %}`)
	s.Add("partbase", `({% block a %}partbase-a{% endblock %}/{% block b %}partbase-b{% endblock %})`)
	s.Add("part", `{% extends "partbase" %}{% block b %}part-b{% endblock %}`)
	s.Add("plain", `{% block b %}plain-b{% endblock %}`)
	got, err := s.Render("page", nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := "[page-a (partbase-a/part-b) plain-b|page-b]"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// TestDeepLoopNesting goes past the loop values a render state holds
// inline.
func TestDeepLoopNesting(t *testing.T) {
	src := `{% for a in v %}{% for b in v %}{% for c in v %}{% for d in v %}{% for e in v %}{% for f in v %}` +
		`{{ forloop.counter }}{{ a }}{{ f }} ` +
		`{% endfor %}{{ forloop.counter }}{% endfor %}{% endfor %}{% endfor %}{% endfor %}{% endfor %}`
	for i := 0; i < 2; i++ {
		got := render(t, src, map[string]any{"v": []any{"x", "y"}})
		if want := "1xx 2xy 1"; !strings.HasPrefix(got, want) || strings.Count(got, " ") != 64 {
			t.Fatalf("render %d: got %q", i, got)
		}
	}
}
