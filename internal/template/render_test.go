package template

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
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
	`{% for r in rows %}{{ forloop.counter }}/{{ forloop.counter0 }}/{{ forloop.revcounter }}` +
		`{% if forloop.first %}F{% endif %}{% if forloop.last %}L{% endif %}:{{ r.a }},{{ r.b }},{{ r.nope }};{% empty %}none{% endfor %}`,
	`{% for r in rows reversed %}{{ forloop.counter }}={{ r.a }}|{% empty %}none{% endfor %}`,
	`{% for r in rows %}{% for q in rows reversed %}{{ forloop.parentloop.counter }}.{{ forloop.counter }}:{{ r.a }}{{ q.b }} {% endfor %}/{% endfor %}`,
	`{% for k, v in rows %}{{ k }}={{ v }};{% endfor %}`,
	`{% for r in rows %}{% with r=r.b %}[{{ r }}]{% endwith %}{{ r.a }}{% with forloop="x" %}{{ forloop }}{% endwith %}{{ forloop.counter }};{% endfor %}`,
	`{% if rows %}some{% else %}none{% endif %} {{ rows|length }} {% for r in rows %}{{ r.a|floatformat:2 }} {{ r.b|title }} {{ r.a|urlencode }} {{ r.b|upper|title }}|{% endfor %}`,
	`{% for r in rows %}{% include "cell.html" %}{% endfor %}`,
}

// TestLoopShapesAgree is the shape-equivalence property: the same rows as
// []map[string]any, as []any and as a RowSet render identically.
func TestLoopShapesAgree(t *testing.T) {
	cols := []string{"key", "value", "a", "b"}
	cell := func(rng *rand.Rand) any {
		switch rng.Intn(7) {
		case 0:
			return nil
		case 1:
			return int64(rng.Intn(2000) - 1000)
		case 2:
			return float64(rng.Intn(100000)) / 100
		case 3:
			return rng.Intn(2) == 0
		case 4:
			return Safe("<b>safe</b>")
		default:
			words := []string{"plain", "two words", `<a href="x">&'`, "héllo wörld", "  padded  ", ""}
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
		var maps []map[string]any
		var anys []any
		for n := rng.Intn(6); n > 0; n-- {
			cells := make([]any, len(cols))
			m := map[string]any{}
			for c, name := range cols {
				cells[c] = cell(rng)
				m[name] = cells[c]
			}
			rows.cells = append(rows.cells, cells)
			maps = append(maps, m)
			anys = append(anys, m)
		}
		for i := range shapeTemplates {
			name := fmt.Sprint("shape", i)
			want, err := set.Render(name, map[string]any{"rows": maps})
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, name, err)
			}
			for shape, v := range map[string]any{"[]any": anys, "RowSet": rows} {
				got, err := set.Render(name, map[string]any{"rows": v})
				if err != nil {
					t.Fatalf("seed %d, %s as %s: %v", seed, name, shape, err)
				}
				if got != want {
					t.Errorf("seed %d, %s: as %s\n got %q\nwant %q (as []map[string]any)", seed, name, shape, got, want)
				}
			}
		}
	}
}

// TestLoopOverOtherShapes covers what sequenceOf reaches by reflection.
func TestLoopOverOtherShapes(t *testing.T) {
	src := `{% for x in v reversed %}{{ forloop.revcounter }}{{ x }}{% if not forloop.last %},{% endif %}{% empty %}-{% endfor %}`
	ints := [3]int{7, 8, 9}
	for _, tt := range []struct {
		v    any
		want string
	}{
		{[]string{"a", "b"}, "2b,1a"},
		{[]int{1, 2, 3}, "33,22,11"},
		{&ints, "39,28,17"},
		{"héy", "3y,2é,1h"},
		{map[string]int{"a": 1}, "1map[key:a value:1]"},
		{[]string{}, "-"},
		{(*[3]int)(nil), "-"},
		{nil, "-"},
	} {
		if got := render(t, src, map[string]any{"v": tt.v}); got != tt.want {
			t.Errorf("loop over %T: got %q, want %q", tt.v, got, tt.want)
		}
	}
	if err := renderErr(t, src, map[string]any{"v": 42}); !strings.Contains(err.Error(), "cannot iterate") {
		t.Errorf("loop over int: %v", err)
	}
	if got := render(t, `{{ v|join:"+" }}`, map[string]any{"v": []int{1, 2}}); got != "1+2" {
		t.Errorf("join over []int: %q", got)
	}
}

// TestStringsCountRunes: wherever a template can index or measure a
// string it counts characters, as {% for c in s %} does, and never cuts
// one in half.
func TestStringsCountRunes(t *testing.T) {
	data := map[string]any{"v": "héllo", "w": "日本語", "e": ""}
	for _, tt := range []struct{ src, want string }{
		{`{{ v|truncatechars:3 }}`, "hé…"},
		{`{{ v|truncatechars:5 }}`, "héllo"},
		{`{{ v|truncatechars:1 }}`, "…"},
		{`{{ v|truncatechars:0 }}`, "…"},
		{`{{ w|truncatechars:2 }}`, "日…"},
		{`{{ e|truncatechars:0 }}`, ""},
		{`{{ v.1 }}`, "é"},
		{`{{ w.2 }}`, "語"},
		{`{{ w.3 }}`, ""},
		{`[{{ v|rjust:6 }}]`, "[ héllo]"},
		{`[{{ v|ljust:7 }}]`, "[héllo  ]"},
		{`[{{ w|rjust:3 }}]`, "[日本語]"},
		{`{{ w|first }}{{ v|last }}`, "日o"},
		{`{{ w|last }}`, "語"},
		{`{{ e|first }}{{ e|last }}`, ""},
		{`{{ w|length }}`, "3"},
		{`{% for c in w %}{{ c }}.{% endfor %}`, "日.本.語."},
	} {
		got := render(t, tt.src, data)
		if got != tt.want {
			t.Errorf("%s = %q, want %q", tt.src, got, tt.want)
		}
		if !utf8.ValidString(got) {
			t.Errorf("%s emitted invalid UTF-8: %q", tt.src, got)
		}
	}
}

type stringer struct{}

func (stringer) String() string { return `<s id="1">` }

// TestAppendValueMatchesStringify: {{ v }}'s direct formatting writes
// exactly HTMLEscape(Stringify(v)) for every type it short-cuts.
func TestAppendValueMatchesStringify(t *testing.T) {
	odd := time.FixedZone(`<&>`, 3600)
	for _, v := range []any{
		nil, "", "plain", `<a href="x">&'`, "héllo", Safe("<i>"), true, false,
		0, -7, 1 << 40, int64(math.MinInt64), int32(5), uint(9),
		0.0, 5.0, -3.25, 1e21, 1e-7, math.Inf(1), math.NaN(), float32(2.5),
		time.Date(2008, 6, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2008, 6, 1, 1, 2, 3, 456789, odd),
		time.Now(), time.Time{},
		stringer{}, errors.New("<e>"), []int{1, 2}, map[string]any{"k": "<"},
	} {
		want := HTMLEscape(Stringify(v))
		if s, ok := v.(Safe); ok {
			want = string(s)
		}
		if got := string(appendValue([]byte("x"), v)); got != "x"+want {
			t.Errorf("appendValue(%#v) = %q, want %q", v, got[1:], want)
		}
	}
}

// TestAppendFiltersMatchTheirFilterFunc: a trailing filter in append
// form, the same filter mid-pipeline (its derived FilterFunc), and the
// reference implementation agree.
func TestAppendFiltersMatchTheirFilterFunc(t *testing.T) {
	titleRef := func(s string) string {
		words := strings.Fields(s)
		for i, w := range words {
			words[i] = capitalizeASCII(w)
		}
		return strings.Join(words, " ")
	}
	for _, s := range []string{
		"", " ", "arts", "SCIENCE-FICTION", "two words", "  lead and trail  ", "tab\tand\nnewline",
		"nbsp sep", "élan vital", "<b>&amp;</b> 'q'", "\xff\xfe bad utf8", "a b",
	} {
		data := map[string]any{"v": s}
		want := HTMLEscape(titleRef(s))
		if got := render(t, `{{ v|title }}`, data); got != want {
			t.Errorf("title(%q) trailing = %q, want %q", s, got, want)
		}
		if got := render(t, `{{ v|title|default:"" }}`, data); got != want {
			t.Errorf("title(%q) mid-pipeline = %q, want %q", s, got, want)
		}
		if got, mid := render(t, `{{ v|urlencode }}`, data), render(t, `{{ v|urlencode|default:"" }}`, data); got != mid {
			t.Errorf("urlencode(%q): trailing %q, mid-pipeline %q", s, got, mid)
		}
	}
	for _, tt := range []struct {
		v         any
		src, want string
	}{
		{12.345, `{{ v|floatformat:2 }}`, "12.35"},
		{12.0, `{{ v|floatformat:-2 }}`, "12"},
		{12.5, `{{ v|floatformat:-2 }}`, "12.50"},
		{int64(3), `{{ v|floatformat }}`, "3.0"},
		{"7.25", `{{ v|floatformat:1 }}`, "7.2"},
		{"n/a", `[{{ v|floatformat:2 }}]`, "[]"},
		{nil, `[{{ v|floatformat:2 }}]`, "[]"},
		{2.5, `{{ v|floatformat:2|add:"!" }}`, "2.50!"},
	} {
		if got := render(t, tt.src, map[string]any{"v": tt.v}); got != tt.want {
			t.Errorf("%s over %#v = %q, want %q", tt.src, tt.v, got, tt.want)
		}
	}
	for _, src := range []string{`{{ v|floatformat:"x" }}`, `{{ v|title:1 }}`, `{{ v|urlencode:1 }}`} {
		err := renderErr(t, "\n"+src, map[string]any{"v": 1.5})
		if !strings.Contains(err.Error(), "line 2: filter ") {
			t.Errorf("%s: error %q does not name the line and the filter", src, err)
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
	s.Add("broken", `{% extends "base" %}{% block body %}{% for r in rows %}{{ r.n }},{% if forloop.last %}{{ r.n|divisibleby:0 }}{% endif %}{% endfor %}{% endblock %}`)
	rows := &tableRows{cols: []string{"n"}, cells: [][]any{{int64(1)}, {int64(2)}, {int64(3)}}}
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
	if err == nil || !strings.Contains(err.Error(), "divisibleby") {
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
		`{{ forloop.parentloop.parentloop.parentloop.parentloop.parentloop.counter }}{{ forloop.counter }}{{ a }}{{ f }} ` +
		`{% endfor %}{% endfor %}{% endfor %}{% endfor %}{% endfor %}{% endfor %}`
	for i := 0; i < 2; i++ {
		got := render(t, src, map[string]any{"v": []any{"x"}})
		if got != "11xx " {
			t.Fatalf("render %d: got %q", i, got)
		}
	}
}
