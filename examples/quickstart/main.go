// Quickstart: the smallest complete staged-server application.
//
// It shows the paper's one-line idiom — a handler performs its database
// queries and returns the *unrendered* template name plus data; the
// server's template-rendering pool does the rest — and demonstrates that
// the database connection is free for other requests while the page
// renders.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"net"
	"os"

	"stagedweb/internal/core"
	"stagedweb/internal/dbtier"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/template"
	"stagedweb/internal/webtest"
)

// guestbookApp is a tiny one-table application.
type guestbookApp struct {
	set *template.Set
}

func (a *guestbookApp) Handler(path string) (server.HandlerFunc, bool) {
	if path != "/guestbook" {
		return nil, false
	}
	return a.guestbook, true
}

func (a *guestbookApp) Static(path string) ([]byte, string, bool) {
	if path == "/style.css" {
		return []byte("body { font-family: serif }"), "text/css", true
	}
	return nil, "", false
}

func (a *guestbookApp) Templates() *template.Set { return a.set }

// guestbook optionally signs the book, then lists entries — and returns
// the template *unrendered* (the paper's modification).
func (a *guestbookApp) guestbook(r *server.Request) (*server.Result, error) {
	if name := r.Query["sign"]; name != "" {
		if _, err := r.DB.Exec(
			"INSERT INTO entry (e_id, e_name) VALUES (NULL, ?)", name); err != nil {
			return nil, err
		}
	}
	rs, err := r.DB.Query("SELECT e_name FROM entry ORDER BY e_id DESC LIMIT 20")
	if err != nil {
		return nil, err
	}
	var names []any
	for i := 0; i < rs.Len(); i++ {
		names = append(names, rs.Str(i, "e_name"))
	}
	// Conventional Django:  return render(tmpl, data)  — rendered here.
	// The paper's version:  return (tmpl, data)        — rendered by the
	// template-rendering pool, after this worker has released its turn
	// with the database connection.
	return &server.Result{
		Template: "guestbook.html",
		Data:     map[string]any{"names": names},
	}, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. An embedded database with one table.
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	db.MustCreateTable(sqldb.Schema{
		Table: "entry",
		Columns: []sqldb.Column{
			{Name: "e_id", Type: sqldb.Int},
			{Name: "e_name", Type: sqldb.String},
		},
		PrimaryKey: "e_id",
	})

	// 2. A template set (Django syntax).
	app := &guestbookApp{set: template.NewSet()}
	app.set.Add("guestbook.html", `<html><body>
<h1>Guestbook</h1>
<ul>{% for n in names %}<li>{{ n }}</li>{% empty %}<li>(no entries)</li>{% endfor %}</ul>
</body></html>`)

	// 3. The staged server: listener + five pools, database connections
	// bound to the dynamic workers only — one pooled connection each.
	tier := dbtier.New(db, dbtier.Options{Conns: 8 + 2})
	defer tier.Close()
	srv, err := core.New(core.Config{
		App:            app,
		DB:             tier.Conn(),
		HeaderWorkers:  8,
		StaticWorkers:  16,
		GeneralWorkers: 8,
		LengthyWorkers: 2,
		RenderWorkers:  16,
		MinReserve:     2,
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
	fmt.Println("staged server listening on", addr)

	// 4. Exercise it: sign the book a few times, then read it back.
	for _, name := range []string{"Ada", "Grace", "Edsger"} {
		if _, err := webtest.Get(addr, "/guestbook?sign="+name); err != nil {
			return err
		}
	}
	resp, err := webtest.Get(addr, "/guestbook")
	if err != nil {
		return err
	}
	fmt.Printf("GET /guestbook -> %d\n%s\n", resp.Status, resp.Body)
	fmt.Printf("server pools: %v, served %d requests\n", srv.QueueLens(), srv.Served())
	return nil
}
