package webtest

import (
	"bufio"
	"strings"
	"testing"
	"time"

	"stagedweb/internal/dbtier"
	"stagedweb/internal/server"
)

func TestMain(m *testing.M) { Main(m) }

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
	app := NewApp().AddPage("/ping", func(r *server.Request) (*server.Result, error) {
		return &server.Result{Body: "pong"}, nil
	})
	tier := dbtier.New(KVDB(t, 0, ""), dbtier.Options{Conns: 2})
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

// TestLeakCheck: a goroutine started after the check began and still
// running is reported with the frame that created it; one that ends
// inside the wait, and one alive before the check began, are not.
func TestLeakCheck(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	go park(release) // alive before the check began
	before := goroutines()

	go time.Sleep(50 * time.Millisecond)
	if left := leftSince(before, leakWait); left != "" {
		t.Errorf("reported:\n%s", left)
	}

	go park(release)
	left := leftSince(before, 100*time.Millisecond)
	if stacks := strings.Split(left, "\n\n"); len(stacks) != 1 ||
		!strings.Contains(left, "webtest.park(") ||
		!strings.Contains(left, "created by stagedweb/internal/webtest.TestLeakCheck") {
		t.Errorf("want the one parked goroutine and its creator, got %d stacks:\n%s", len(stacks), left)
	}
}

func park(release chan struct{}) { <-release }
