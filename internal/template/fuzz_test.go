package template_test

import (
	"testing"
	"time"

	"stagedweb/internal/sqldb"
	"stagedweb/internal/template"
	"stagedweb/internal/tpcw"
)

// fuzzSeeds are the shapes of template the package's own tests use, next
// to every TPC-W page.
var fuzzSeeds = []string{
	`<title>{{ title }}</title>`,
	`{{ v|safe }} {{ v|escape }} {{ v|default:"x"|upper }} {{ n|add:3|floatformat:-2 }}`,
	`{% if a and not b or n >= 2 %}yes{% elif v in words %}in{% else %}no{% endif %}`,
	`{% for r in rows reversed %}{{ forloop.counter }}:{{ r.i_title|title }} ${{ r.i_cost|floatformat:2 }}{% empty %}none{% endfor %}`,
	`{% for k, v in m %}{{ k }}={{ v }}{% endfor %}{% for c in v %}{{ c }}{% endfor %}`,
	`{% for a in words %}{% for b in lines %}{{ forloop.parentloop.counter }}{{ b.i_id }}{{ forloop }}{% endfor %}{% endfor %}`,
	`{% with x=v|urlencode %}{{ x }}{% endwith %}{% with rows as r %}{{ r|length }}{% endwith %}`,
	`{% extends "base.html" %}{% block title %}{{ v }}{% endblock %}{% block content %}{% include "promo.html" %}{% endblock %}`,
	`{% include name %}{# comment #}{% comment %}{{ skipped }}{% endcomment %}`,
	`{{ v.1 }}{{ v|truncatechars:3 }}{{ v|rjust:9 }}{{ words|join:", " }}{{ words|first }}{{ v|last }}`,
	`{{ when }} {{ nothing }} {{ n|divisibleby:0 }}`,
	`{% block a %}{% block b %}{{ v }}{% endblock %}{% endblock %}{{ "lit"|add:'eral' }}`,
}

// FuzzRender: parsing never panics, whatever the bytes; and a template
// that renders, renders the same page as a string and appended to a
// non-empty buffer — or fails both ways and leaves the buffer alone.
func FuzzRender(f *testing.F) {
	pages := tpcw.Templates()
	for _, src := range pages {
		f.Add(src)
	}
	for _, src := range fuzzSeeds {
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
		"words": []string{"x", "y"}, "m": map[string]int{"one": 1, "two": 2},
		"rows": rows, "results": rows, "promotions": []map[string]any{{"i_id": int64(1), "i_title": "a <b> title"}}, "item": rows,
		"lines": []any{map[string]any{"i_id": 9}}, "subjects": []any{"ARTS", "NON-FICTION"},
		"name": "footer.html", "when": time.Date(2008, 6, 1, 0, 0, 0, 0, time.UTC),
		"c_id": 7, "i_cost": 3.25, "subject": "science-fiction",
	}
	f.Fuzz(func(t *testing.T, src string) {
		set := template.NewSet()
		set.AddAll(pages)
		set.Add("fuzz.html", src)
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
