package webtest

import (
	"bufio"
	"strings"
	"testing"

	"stagedweb/internal/dbtier"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
)

func TestAppImplementsServerApp(t *testing.T) {
	app := NewApp().
		AddTemplate("t.html", "{{ x }}").
		AddStatic("/a.css", []byte("x"), "text/css").
		AddPage("/p", func(r *server.Request) (*server.Result, error) {
			return &server.Result{Body: "ok"}, nil
		})
	if _, ok := app.Handler("/p"); !ok {
		t.Fatal("handler missing")
	}
	if _, ok := app.Handler("/nope"); ok {
		t.Fatal("phantom handler")
	}
	body, ct, ok := app.Static("/a.css")
	if !ok || ct != "text/css" || string(body) != "x" {
		t.Fatalf("static = %q %q %v", body, ct, ok)
	}
	out, err := app.Templates().Render("t.html", map[string]any{"x": 1})
	if err != nil || out != "1" {
		t.Fatalf("render = %q, %v", out, err)
	}
}

func TestReadResponse(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\nhello"
	resp, err := ReadResponse(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "hello" {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Header.Get("Content-Type") != "text/plain" {
		t.Fatalf("header = %v", resp.Header)
	}
}

func TestReadResponseErrors(t *testing.T) {
	for _, raw := range []string{
		"",
		"NOTHTTP 200 OK\r\n\r\n",
		"HTTP/1.1 abc OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\n\r\n", // no Content-Length
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhi",  // truncated body
		"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",    // negative
		"HTTP/1.1 200 OK\r\nContent-Length: nan\r\n\r\nhi", // non-numeric
	} {
		if _, err := ReadResponse(bufio.NewReader(strings.NewReader(raw))); err == nil {
			t.Errorf("ReadResponse(%q) succeeded", raw)
		}
	}
}

func TestEndToEndAgainstBaseline(t *testing.T) {
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	db.MustCreateTable(sqldb.Schema{
		Table:      "t",
		Columns:    []sqldb.Column{{Name: "id", Type: sqldb.Int}},
		PrimaryKey: "id",
	})
	app := NewApp().AddPage("/ping", func(r *server.Request) (*server.Result, error) {
		return &server.Result{Body: "pong"}, nil
	})
	tier := dbtier.New(db, dbtier.Options{Conns: 2})
	defer tier.Close()
	srv, err := server.NewBaseline(server.BaselineConfig{App: app, DB: tier.Conn(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	l, addr, err := Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Stop()

	resp, err := Get(addr, "/ping")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "pong" {
		t.Fatalf("resp = %+v", resp)
	}

	// Keep-alive client path.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		resp, err := c.Do("/ping", true)
		if err != nil || resp.Status != 200 {
			t.Fatalf("keep-alive %d: %+v %v", i, resp, err)
		}
	}
}
