package template

import (
	"strings"
	"testing"
)

// render is a helper that registers one template and renders it.
func render(t *testing.T, src string, data map[string]any) string {
	t.Helper()
	s := NewSet()
	s.Add("t", src)
	out, err := s.Render("t", data)
	if err != nil {
		t.Fatalf("render %q: %v", src, err)
	}
	return out
}

func renderErr(t *testing.T, src string, data map[string]any) error {
	t.Helper()
	s := NewSet()
	s.Add("t", src)
	_, err := s.Render("t", data)
	if err == nil {
		t.Fatalf("render %q succeeded, want error", src)
	}
	return err
}

// mustNotParse checks that each source fails to load: a form outside the
// language is a parse error, never a page rendered some other way.
func mustNotParse(t *testing.T, srcs ...string) {
	t.Helper()
	for _, src := range srcs {
		s := NewSet()
		s.Add("t", src)
		if _, err := s.Get("t"); err == nil {
			t.Errorf("%q parsed, want a parse error", src)
		}
	}
}

func TestPlainText(t *testing.T) {
	if got := render(t, "<html>hello</html>", nil); got != "<html>hello</html>" {
		t.Fatalf("got %q", got)
	}
}

func TestVariableSubstitution(t *testing.T) {
	got := render(t, "<title>{{ title }}</title>", map[string]any{"title": "TPC-W"})
	if got != "<title>TPC-W</title>" {
		t.Fatalf("got %q", got)
	}
}

func TestPaperFigure3Template(t *testing.T) {
	// The exact presentation template from Figure 3 of the paper.
	src := `<html>
<head> <title> {{ title }} </title> </head>
<body>
<h2 align="center"> {{ heading }} </h2>
<ul>
{% for item in listitems %}
<li> {{ item }} </li>
{% endfor %}
</ul>
</body>
</html>`
	data := map[string]any{
		"title":     "Bookstore",
		"heading":   "Welcome",
		"listitems": []any{"one", "two", "three"},
	}
	got := render(t, src, data)
	for _, want := range []string{
		"<title> Bookstore </title>",
		`<h2 align="center"> Welcome </h2>`,
		"<li> one </li>", "<li> two </li>", "<li> three </li>",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestAutoEscaping(t *testing.T) {
	got := render(t, "{{ v }}", map[string]any{"v": `<script>"x" & 'y'</script>`})
	want := "&lt;script&gt;&quot;x&quot; &amp; &#39;y&#39;&lt;/script&gt;"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestMissingVariableRendersEmpty(t *testing.T) {
	data := map[string]any{"m": map[string]any{"k": "v"}, "n": 3}
	if got := render(t, "[{{ nothing }}{{ nothing.deeper }}{{ m.missing }}{{ n.k }}{{ forloop.counter }}]", data); got != "[]" {
		t.Fatalf("got %q", got)
	}
}

func TestDottedPathMap(t *testing.T) {
	data := map[string]any{"book": map[string]any{"title": "Go", "author": map[string]any{"name": "Pike"}}}
	if got := render(t, "{{ book.author.name }}", data); got != "Pike" {
		t.Fatalf("got %q", got)
	}
}

// The three TestDottedPath tests below pin that a path does not reach
// into Go values — there is no reflection: a struct field, a slice index
// and a method render empty, like a missing variable.

func TestDottedPathStruct(t *testing.T) {
	type Author struct{ Name string }
	data := map[string]any{"book": Author{Name: "Pike"}, "ptr": &Author{Name: "Pike"}}
	if got := render(t, "[{{ book.Name }}{{ ptr.Name }}]", data); got != "[]" {
		t.Fatalf("got %q", got)
	}
}

func TestDottedPathSliceIndex(t *testing.T) {
	data := map[string]any{"xs": []any{"a", "b", "c"}, "s": "abc"}
	if got := render(t, "[{{ xs.1 }}{{ s.0 }}]", data); got != "[]" {
		t.Fatalf("got %q", got)
	}
}

func TestDottedPathMethod(t *testing.T) {
	data := map[string]any{"v": stringerVal{}}
	if got := render(t, "[{{ v.Label }}]", data); got != "[]" {
		t.Fatalf("got %q", got)
	}
}

type stringerVal struct{}

func (stringerVal) Label() string { return "labelled" }

func TestIfElse(t *testing.T) {
	for _, tt := range []struct {
		src  string
		data map[string]any
		want string
	}{
		{"{% if n %}yes{% else %}no{% endif %}", map[string]any{"n": 3}, "yes"},
		{"{% if n %}yes{% else %}no{% endif %}", map[string]any{"n": 0}, "no"},
		{"{% if n %}yes{% else %}no{% endif %}", nil, "no"},
		{"[{% if n %}yes{% endif %}]", map[string]any{"n": ""}, "[]"},
		{"{% if m.k %}{{ m.k }}{% endif %}", map[string]any{"m": map[string]any{"k": "v"}}, "v"},
		{"{% if 'lit' %}a{% endif %}{% if 0 %}b{% else %}c{% endif %}", nil, "ac"},
		{"{% if a %}{% if b %}ab{% else %}a{% endif %}{% else %}-{% endif %}", map[string]any{"a": true}, "a"},
	} {
		if got := render(t, tt.src, tt.data); got != tt.want {
			t.Errorf("%s over %v = %q, want %q", tt.src, tt.data, got, tt.want)
		}
	}
}

// TestIfOperators: {% if %} tests one operand; every operator is a parse
// error.
func TestIfOperators(t *testing.T) {
	for _, cond := range []string{
		"a == b", "a != b", "a < b", "a <= b", "a > b", "a >= b", "a and b", "a or b",
		"not a", "x in xs", "x not in xs", "a == 'go'", "n == 3.5", "a and not b or c", "a|title",
	} {
		mustNotParse(t, "{% if "+cond+" %}T{% else %}F{% endif %}")
	}
	mustNotParse(t, "{% if %}T{% endif %}", "{% if a %}T{% elif b %}E{% endif %}")
}

// TestForLoopVariables: forloop has counter; its other Django
// attributes render empty.
func TestForLoopVariables(t *testing.T) {
	src := "{% for x in xs %}{{ forloop.counter }}:{{ x }}[{{ forloop.counter0 }}{{ forloop.first }}{{ forloop.last }}{{ forloop.parentloop }}],{% endfor %}"
	got := render(t, src, map[string]any{"xs": []any{7, 8, 9}})
	if got != "1:7[],2:8[],3:9[]," {
		t.Fatalf("got %q", got)
	}
}

func TestForEmpty(t *testing.T) {
	src := "{% for x in xs %}{{ x }}{% empty %}none{% endfor %}"
	for _, xs := range []any{[]any{}, nil, &tableRows{}} {
		if got := render(t, src, map[string]any{"xs": xs}); got != "none" {
			t.Fatalf("over %#v: got %q", xs, got)
		}
	}
	if got := render(t, src, nil); got != "none" {
		t.Fatalf("over a missing variable: got %q", got)
	}
}

// TestForReversed: a loop walks forwards only; "reversed" is a parse
// error.
func TestForReversed(t *testing.T) {
	mustNotParse(t, "{% for x in xs reversed %}{{ x }}{% endfor %}")
}

// TestForMapDeterministic: a map has no order to walk, so a loop over one
// fails rather than rendering in an order that changes run to run; so
// does unpacking two loop variables.
func TestForMapDeterministic(t *testing.T) {
	data := map[string]any{"m": map[string]any{"b": 2, "a": 1, "c": 3}}
	if err := renderErr(t, "{% for x in m %}{{ x }}{% endfor %}", data); !strings.Contains(err.Error(), "cannot iterate") {
		t.Fatalf("loop over a map: %v", err)
	}
	mustNotParse(t, "{% for k, v in m %}{{ k }}={{ v }};{% endfor %}", "{% for k,v in m %}{% endfor %}")
}

// TestForNested: an inner loop's forloop and variable shadow the outer
// loop's, which are back once it ends.
func TestForNested(t *testing.T) {
	src := "{% for x in rows %}{% for x in x.cells %}{{ forloop.counter }}{{ x }} {% endfor %}{{ forloop.counter }}{{ x.name }}/{% endfor %}"
	data := map[string]any{"rows": []any{
		map[string]any{"name": "r1", "cells": []any{"a", "b"}},
		map[string]any{"name": "r2", "cells": []any{"c"}},
	}}
	if got := render(t, src, data); got != "1a 2b 1r1/1c 2r2/" {
		t.Fatalf("got %q", got)
	}
}

// TestWith: {% with %} is not part of the language.
func TestWith(t *testing.T) {
	mustNotParse(t,
		"{% with total=xs %}{{ total }}{% endwith %}",
		"{% with xs as total %}{{ total }}{% endwith %}",
		"{% with %}{% endwith %}",
	)
}

// TestComments: neither comment form is part of the language.
func TestComments(t *testing.T) {
	mustNotParse(t, "a{# hidden #}b", "a{% comment %}x{{ y }}z{% endcomment %}b", "{#")
}

func TestInclude(t *testing.T) {
	s := NewSet()
	s.Add("header", "<h1>{{ title }}</h1>")
	s.Add("page", "{% include 'header' %}<p>body</p>")
	out, err := s.Render("page", map[string]any{"title": "Hi"})
	if err != nil {
		t.Fatal(err)
	}
	if out != "<h1>Hi</h1><p>body</p>" {
		t.Fatalf("got %q", out)
	}
}

func TestIncludeDynamicName(t *testing.T) {
	s := NewSet()
	s.Add("partial_a", "A")
	s.Add("page", "{% include which %}")
	out, err := s.Render("page", map[string]any{"which": "partial_a"})
	if err != nil {
		t.Fatal(err)
	}
	if out != "A" {
		t.Fatalf("got %q", out)
	}
}

func TestExtends(t *testing.T) {
	s := NewSet()
	s.Add("base", "<head>{% block head %}default{% endblock %}</head><body>{% block body %}{% endblock %}</body>")
	s.Add("child", "{% extends 'base' %}{% block body %}child body{% endblock %}")
	out, err := s.Render("child", nil)
	if err != nil {
		t.Fatal(err)
	}
	if out != "<head>default</head><body>child body</body>" {
		t.Fatalf("got %q", out)
	}
}

func TestExtendsTwoLevels(t *testing.T) {
	s := NewSet()
	s.Add("base", "[{% block a %}A{% endblock %}|{% block b %}B{% endblock %}]")
	s.Add("mid", "{% extends 'base' %}{% block a %}mid-a{% endblock %}")
	s.Add("leaf", "{% extends 'mid' %}{% block b %}leaf-b{% endblock %}")
	out, err := s.Render("leaf", nil)
	if err != nil {
		t.Fatal(err)
	}
	if out != "[mid-a|leaf-b]" {
		t.Fatalf("got %q", out)
	}
}

func TestExtendsCycleDetected(t *testing.T) {
	s := NewSet()
	s.Add("a", "{% extends 'b' %}")
	s.Add("b", "{% extends 'a' %}")
	if _, err := s.Render("a", nil); err == nil {
		t.Fatal("extends cycle not detected")
	}
}

func TestIncludeCycleDetected(t *testing.T) {
	s := NewSet()
	s.Add("a", "{% include 'b' %}")
	s.Add("b", "{% include 'a' %}")
	if _, err := s.Render("a", nil); err == nil {
		t.Fatal("include cycle not detected")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"{% if x %}no end",
		"{% for x in %}{% endfor %}",
		"{% endif %}",
		"{% unknowntag %}",
		"{{ }}",
		"{{ x|nosuchfilter }}",
		"{% for in xs %}{% endfor %}",
		"{{ x|",
		"{% block %}{% endblock %}",
		"{% block a %}{% endblock %}{% block a %}{% endblock %}",
		"{% block a.b %}{% endblock %}",
		"{% if x %}{% endblock %}",
		"{% for x in xs %}{% else %}{% endfor %}",
		"{% if x %}a{% endif x %}",
		"{% extends %}",
		"{% extends 'a' %}{% extends 'b' %}",
		"{% include %}",
		"{{ 'open }}",
		"{{ 1.2.3 }}",
		"{{ x y }}",
		"{{ x|title junk }}",
		// The forms the language dropped, one each.
		"{% with x=y %}{{ x }}{% endwith %}",
		"{% comment %}x{% endcomment %}",
		"{% if a %}A{% elif b %}B{% endif %}",
		"{% for x in xs reversed %}{% endfor %}",
		"{% for k, v in m %}{% endfor %}",
		"{% if a and b %}{% endif %}",
		"{% if a == b %}{% endif %}",
		"{{ v|title|urlencode }}",
		"{{ v|safe }}",
	} {
		mustNotParse(t, src)
	}
}

func TestUnclosedDelimiter(t *testing.T) {
	renderErr(t, "{{ x", nil)
	renderErr(t, "{% if x %}{{ y }", map[string]any{"x": true})
}

func TestLoneBracesAreText(t *testing.T) {
	if got := render(t, "a { b } c {x}", nil); got != "a { b } c {x}" {
		t.Fatalf("got %q", got)
	}
	if got := render(t, "{", nil); got != "{" {
		t.Fatalf("got %q", got)
	}
}

func TestTemplateNotFound(t *testing.T) {
	s := NewSet()
	if _, err := s.Render("missing", nil); err == nil {
		t.Fatal("missing template rendered")
	}
}

func TestSetCachesParse(t *testing.T) {
	s := NewSet()
	s.Add("t", "{{ x }}")
	t1, err := s.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatal("Get did not cache the parsed template")
	}
	s.Add("t", "{{ y }}") // re-register invalidates
	t3, err := s.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	if t3 == t1 {
		t.Fatal("Add did not invalidate the cache")
	}
}

func TestConcurrentRenders(t *testing.T) {
	s := NewSet()
	s.Add("t", "{% for x in xs %}{{ x }}{% endfor %}")
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			out, err := s.Render("t", map[string]any{"xs": []any{1, 2, 3}})
			if err == nil && out != "123" {
				err = errUnexpected(out)
			}
			done <- err
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errUnexpected string

func (e errUnexpected) Error() string { return "unexpected output: " + string(e) }

func TestStringLiteralWithSpaces(t *testing.T) {
	got := render(t, `{{ "a | b" }}={{ xs|join:" and " }}`, map[string]any{"xs": []any{"x", "y"}})
	if got != "a | b=x and y" {
		t.Fatalf("got %q", got)
	}
}
