// Blog: a second domain application on the public API, demonstrating
// template inheritance ({% extends %}/{% block %}), custom filters, the
// backward-compatibility path (one legacy handler returns a pre-rendered
// string, which the staged server must still serve, Section 3.1 of the
// paper), and a comparison of the same app on both server variants.
//
// Run: go run ./examples/blog
package main

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"stagedweb/internal/core"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/template"
	"stagedweb/internal/webtest"
)

// blogApp serves a post list, single posts, and an archive page.
type blogApp struct {
	set *template.Set
}

var _ server.App = (*blogApp)(nil)

func (a *blogApp) Templates() *template.Set { return a.set }

func (a *blogApp) Static(path string) ([]byte, string, bool) {
	if path == "/blog.css" {
		return []byte("article { max-width: 40em }"), "text/css", true
	}
	return nil, "", false
}

func (a *blogApp) Handler(path string) (server.HandlerFunc, bool) {
	switch path {
	case "/":
		return a.index, true
	case "/post":
		return a.post, true
	case "/archive":
		return a.archive, true
	case "/legacy":
		// The unconverted handler: renders inside the handler and
		// returns a string, as pre-modification Django code would.
		return func(r *server.Request) (*server.Result, error) {
			out, err := a.set.Render("post.html", map[string]any{
				"title": "Legacy", "body": "rendered in the handler", "tags": []any{},
			})
			if err != nil {
				return nil, err
			}
			return &server.Result{Body: out}, nil
		}, true
	}
	return nil, false
}

func (a *blogApp) index(r *server.Request) (*server.Result, error) {
	rs, err := r.DB.Query("SELECT p_id, p_title, p_date FROM post ORDER BY p_date DESC LIMIT 10")
	if err != nil {
		return nil, err
	}
	return &server.Result{Template: "index.html", Data: map[string]any{
		"posts": rs,
	}}, nil
}

func (a *blogApp) post(r *server.Request) (*server.Result, error) {
	// The embedded engine is strictly typed: parse the id before binding
	// it against the INT primary key.
	id, err := strconv.Atoi(r.Query["id"])
	if err != nil {
		return &server.Result{Status: 404, Body: "<html>no such post</html>"}, nil
	}
	rs, err := r.DB.Query("SELECT p_title, p_body FROM post WHERE p_id = ?", id)
	if err != nil {
		return nil, err
	}
	if rs.Len() == 0 {
		return &server.Result{Status: 404, Body: "<html>no such post</html>"}, nil
	}
	tags, err := r.DB.Query("SELECT t_name FROM tag WHERE t_p_id = ?", id)
	if err != nil {
		return nil, err
	}
	var tagNames []any
	for i := 0; i < tags.Len(); i++ {
		tagNames = append(tagNames, tags.Str(i, "t_name"))
	}
	return &server.Result{Template: "post.html", Data: map[string]any{
		"title": rs.Str(0, "p_title"),
		"body":  rs.Str(0, "p_body"),
		"tags":  tagNames,
	}}, nil
}

func (a *blogApp) archive(r *server.Request) (*server.Result, error) {
	rs, err := r.DB.Query("SELECT p_id, p_title, p_date FROM post ORDER BY p_date ASC")
	if err != nil {
		return nil, err
	}
	return &server.Result{Template: "archive.html", Data: map[string]any{
		"posts": rs, "total": rs.Len(),
	}}, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "blog:", err)
		os.Exit(1)
	}
}

func run() error {
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	db.MustCreateTable(sqldb.Schema{
		Table: "post",
		Columns: []sqldb.Column{
			{Name: "p_id", Type: sqldb.Int},
			{Name: "p_title", Type: sqldb.String},
			{Name: "p_body", Type: sqldb.String},
			{Name: "p_date", Type: sqldb.Time},
		},
		PrimaryKey: "p_id",
	})
	db.MustCreateTable(sqldb.Schema{
		Table: "tag",
		Columns: []sqldb.Column{
			{Name: "t_id", Type: sqldb.Int},
			{Name: "t_p_id", Type: sqldb.Int},
			{Name: "t_name", Type: sqldb.String},
		},
		PrimaryKey: "t_id",
		Indexes:    []string{"t_p_id"},
	})
	seed := db.Connect()
	base := time.Date(2009, 6, 29, 0, 0, 0, 0, time.UTC) // DSN'09
	titles := []string{"Thread pools", "Template engines", "Little's law", "Queueing"}
	for i, title := range titles {
		if _, err := seed.Exec(
			"INSERT INTO post (p_id, p_title, p_body, p_date) VALUES (?, ?, ?, ?)",
			i+1, title, "Body of "+strings.ToLower(title)+".", base.AddDate(0, 0, i)); err != nil {
			return err
		}
		if _, err := seed.Exec(
			"INSERT INTO tag (t_id, t_p_id, t_name) VALUES (NULL, ?, ?)",
			i+1, "systems"); err != nil {
			return err
		}
	}
	seed.Close()

	app := &blogApp{set: template.NewSet()}
	// A custom filter, registered before first render.
	app.set.Filters().Register("shout", func(v any, _ any, _ bool) (any, error) {
		return strings.ToUpper(template.Stringify(v)) + "!", nil
	})
	app.set.AddAll(map[string]string{
		"base.html": `<html><head><title>{% block title %}Blog{% endblock %}</title>
<link rel="stylesheet" href="/blog.css"></head>
<body>{% block content %}{% endblock %}
<footer>powered by the staged server</footer></body></html>`,
		"index.html": `{% extends "base.html" %}
{% block title %}{{ "the blog"|shout }}{% endblock %}
{% block content %}<ul>
{% for p in posts %}<li><a href="/post?id={{ p.p_id }}">{{ p.p_title }}</a> ({{ p.p_date }})</li>{% endfor %}
</ul>{% endblock %}`,
		"post.html": `{% extends "base.html" %}
{% block title %}{{ title }}{% endblock %}
{% block content %}<article><h1>{{ title|capfirst }}</h1><p>{{ body }}</p>
{% if tags %}<p>tags: {{ tags|join:", " }}</p>{% endif %}</article>{% endblock %}`,
		"archive.html": `{% extends "base.html" %}
{% block title %}Archive{% endblock %}
{% block content %}<h1>{{ total }} post{{ total|pluralize }}</h1>
<ol>{% for p in posts %}<li>{{ p.p_title }}</li>{% endfor %}</ol>{% endblock %}`,
	})

	srv, err := core.New(core.Config{
		App: app, DB: db,
		GeneralWorkers: 4, LengthyWorkers: 1, MinReserve: 1,
	})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Stop()
	addr := l.Addr().String()

	for _, path := range []string{"/", "/post?id=2", "/archive", "/legacy", "/post?id=99"} {
		resp, err := webtest.Get(addr, path)
		if err != nil {
			return err
		}
		first := strings.SplitN(string(resp.Body), "\n", 2)[0]
		fmt.Printf("GET %-14s -> %d  %.60s\n", path, resp.Status, first)
	}
	fmt.Printf("\nserved %d requests through the five-pool pipeline\n", srv.Served())
	return nil
}
