package template_test

import (
	"slices"
	"testing"
	"time"

	"stagedweb/internal/sqldb"
	"stagedweb/internal/template"
	"stagedweb/internal/tpcw"
)

// fuzzSeeds are the shapes of template the package's own tests use, next
// to every TPC-W page: all of them parse.
var fuzzSeeds = []string{
	`<title>{{ title }}</title>{{ "lit" }}{{ 42 }}{{ -2.5 }}`,
	`{{ v|title }} {{ v|urlencode }} {{ n|floatformat:-2 }} {{ i_cost|floatformat }} {{ words|join:", " }} {{ rows|join:sep }}`,
	`{% if a %}yes{% else %}no{% endif %}{% if b %}{% if v %}in{% endif %}{% endif %}`,
	`{% for r in rows %}{{ forloop.counter }}:{{ r.i_title|title }} ${{ r.i_cost|floatformat:2 }}{% empty %}none{% endfor %}`,
	`{% for a in words %}{% for b in lines %}{{ forloop.counter }}{{ b.i_id }}{{ forloop }}{{ a }}{% endfor %}{% endfor %}`,
	`{% extends "base.html" %}{% block title %}{{ v }}{% endblock %}{% block content %}{% include "promo.html" %}{% endblock %}`,
	`{% include name %}{% for c in v %}{{ c }}{% endfor %}{{ v|join }}`,
	`{{ when }} {{ nothing }} {{ nothing.deeper }} {{ m.one }} {{ rows.i_id }}`,
	`{% block a %}{% block b %}{{ v }}{% endblock %}{% endblock %}{ lone } {x}`,
	`{% for x in subjects %}<a href="?s={{ x|urlencode }}">{{ x|title }}</a>{% endfor %}`,
}

// unparsedSeeds are forms the language dropped: each must fail to parse.
var unparsedSeeds = []string{
	`{{ v|safe }} {{ v|default:"x"|upper }}`,
	`{% if a and not b or n >= 2 %}yes{% elif v in words %}in{% endif %}`,
	`{% for k, v in m %}{{ k }}={{ v }}{% endfor %}`,
	`{% for r in rows reversed %}{{ r }}{% endfor %}`,
	`{% with x=v|urlencode %}{{ x }}{% endwith %}`,
	`{# comment #}{% comment %}{{ skipped }}{% endcomment %}`,
}

// FuzzRender: parsing never panics, whatever the bytes, and rejects the
// unparsedSeeds; and a template
// that renders, renders the same page as a string and appended to a
// non-empty buffer — or fails both ways and leaves the buffer alone.
func FuzzRender(f *testing.F) {
	pages := tpcw.Templates()
	for _, src := range pages {
		f.Add(src)
	}
	for _, src := range append(fuzzSeeds, unparsedSeeds...) {
		f.Add(src)
	}
	rows := &sqldb.ResultSet{
		Columns: []string{"i_id", "i_title", "i_cost", "key", "value"},
		Rows: [][]sqldb.Value{
			{int64(1), "a <b> title", 12.5, "k1", nil},
			{int64(2), "ünïcode & more", 7.0, "k2", true},
		},
	}
	data := map[string]any{
		"title": "T", "v": `hé<"&'>llo`, "n": 4, "a": true, "b": false,
		"words": []any{"x", "y"}, "m": map[string]any{"one": 1, "two": 2}, "sep": " | ",
		"rows": rows, "results": rows, "promotions": []any{map[string]any{"i_id": int64(1), "i_title": "a <b> title"}}, "item": rows,
		"lines": []any{map[string]any{"i_id": 9}}, "subjects": []any{"ARTS", "NON-FICTION"},
		"name": "footer.html", "when": time.Date(2008, 6, 1, 0, 0, 0, 0, time.UTC),
		"c_id": 7, "i_cost": 3.25, "subject": "science-fiction",
	}
	f.Fuzz(func(t *testing.T, src string) {
		set := template.NewSet()
		set.AddAll(pages)
		set.Add("fuzz.html", src)
		if _, err := set.Get("fuzz.html"); err == nil && slices.Contains(unparsedSeeds, src) {
			t.Fatalf("%q parsed, want a parse error", src)
		}
		page, err := set.Render("fuzz.html", data)
		const prefix = "already here:"
		buf := append(make([]byte, 0, 64), prefix...)
		out, appendErr := set.RenderAppend(buf, "fuzz.html", data)
		if (err == nil) != (appendErr == nil) {
			t.Fatalf("Render: %v, RenderAppend: %v", err, appendErr)
		}
		if err != nil {
			page = ""
		}
		if string(out) != prefix+page {
			t.Fatalf("RenderAppend wrote %q, Render %q (err %v)", out, page, err)
		}
	})
}
