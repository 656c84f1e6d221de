package server_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/webtest"
)

// baselineEnv is a running baseline server plus its database.
type baselineEnv struct {
	srv  *server.Baseline
	addr string
	db   *sqldb.DB
}

// startBaseline boots a baseline server around app and returns its
// address.
func startBaseline(t *testing.T, app *webtest.App, workers int, onComplete func(server.CompletionEvent)) string {
	return startBaselineEnv(t, app, workers, onComplete).addr
}

// startBaselineEnv boots a baseline server and returns the full
// environment for tests that inspect server or database state.
func startBaselineEnv(t *testing.T, app *webtest.App, workers int, onComplete func(server.CompletionEvent)) *baselineEnv {
	t.Helper()
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	db.MustCreateTable(sqldb.Schema{
		Table:      "kv",
		Columns:    []sqldb.Column{{Name: "id", Type: sqldb.Int}, {Name: "v", Type: sqldb.String}},
		PrimaryKey: "id",
	})
	seed := db.Connect()
	if _, err := seed.Exec("INSERT INTO kv (id, v) VALUES (1, 'hello-from-db')"); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	s, err := server.NewBaseline(server.BaselineConfig{
		App:        app,
		DB:         db,
		Workers:    workers,
		OnComplete: onComplete,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, addr, err := webtest.Listen()
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	t.Cleanup(func() {
		s.Stop()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return &baselineEnv{srv: s, addr: addr, db: db}
}

func testApp() *webtest.App {
	app := webtest.NewApp()
	app.AddTemplate("page.html", "<html><body>{{ msg }}</body></html>")
	app.AddStatic("/img/flowers.gif", []byte("GIF89a-fake-image-bytes"), "image/gif")
	app.AddPage("/hello", func(r *server.Request) (*server.Result, error) {
		rs, err := r.DB.Query("SELECT v FROM kv WHERE id = ?", 1)
		if err != nil {
			return nil, err
		}
		return &server.Result{Template: "page.html", Data: map[string]any{"msg": rs.Str(0, "v")}}, nil
	})
	app.AddPage("/prerendered", func(r *server.Request) (*server.Result, error) {
		return &server.Result{Body: "<html>already rendered</html>"}, nil
	})
	app.AddPage("/boom", func(r *server.Request) (*server.Result, error) {
		return nil, fmt.Errorf("handler exploded")
	})
	app.AddPage("/redirect", func(r *server.Request) (*server.Result, error) {
		return &server.Result{Redirect: "/hello"}, nil
	})
	app.AddPage("/echo", func(r *server.Request) (*server.Result, error) {
		return &server.Result{Body: "q=" + r.Query["q"]}, nil
	})
	return app
}

func TestBaselineDynamicPage(t *testing.T) {
	addr := startBaseline(t, testApp(), 4, nil)
	resp, err := webtest.Get(addr, "/hello")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	if want := "<html><body>hello-from-db</body></html>"; string(resp.Body) != want {
		t.Fatalf("body = %q, want %q", resp.Body, want)
	}
}

func TestBaselineStaticFile(t *testing.T) {
	addr := startBaseline(t, testApp(), 4, nil)
	resp, err := webtest.Get(addr, "/img/flowers.gif")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || resp.Header.Get("Content-Type") != "image/gif" {
		t.Fatalf("status=%d ct=%q", resp.Status, resp.Header.Get("Content-Type"))
	}
	if !strings.HasPrefix(string(resp.Body), "GIF89a") {
		t.Fatalf("body = %q", resp.Body)
	}
}

func TestBaselineNotFound(t *testing.T) {
	addr := startBaseline(t, testApp(), 4, nil)
	for _, path := range []string{"/nosuch", "/img/nosuch.gif"} {
		resp, err := webtest.Get(addr, path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != 404 {
			t.Fatalf("GET %s status = %d, want 404", path, resp.Status)
		}
	}
}

func TestBaselineHandlerError(t *testing.T) {
	addr := startBaseline(t, testApp(), 4, nil)
	resp, err := webtest.Get(addr, "/boom")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 500 {
		t.Fatalf("status = %d, want 500", resp.Status)
	}
}

// A render that fails half-way down a page must reach the client as a
// clean 500 — none of the half-rendered page — and the body buffer it
// was rendering into must serve the next pages intact once recycled.
func TestBaselineRenderErrorMidPage(t *testing.T) {
	app := testApp()
	filler := strings.Repeat("<p>filler</p>", 400)
	app.AddTemplate("long.html", filler+"{{ msg }}")
	app.AddTemplate("broken.html", filler+"{{ msg }}{{ msg|divisibleby:0 }}"+filler)
	for _, name := range []string{"long", "broken"} {
		app.AddPage("/"+name, func(*server.Request) (*server.Result, error) {
			return &server.Result{Template: name + ".html", Data: map[string]any{"msg": "end"}}, nil
		})
	}
	// One worker: every page is rendered into the same recycled buffer.
	addr := startBaseline(t, app, 1, nil)
	get := func(path string) *webtest.Response {
		t.Helper()
		resp, err := webtest.Get(addr, path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}
	for round := 0; round < 3; round++ {
		if resp := get("/long"); resp.Status != 200 || string(resp.Body) != filler+"end" {
			t.Fatalf("round %d: /long status %d, %d-byte body", round, resp.Status, len(resp.Body))
		}
		if resp := get("/broken"); resp.Status != 500 || string(resp.Body) != "render error" {
			t.Fatalf("round %d: /broken status %d, body %.60q", round, resp.Status, resp.Body)
		}
		if resp := get("/hello"); resp.Status != 200 || string(resp.Body) != "<html><body>hello-from-db</body></html>" {
			t.Fatalf("round %d: /hello after the failed render: status %d, body %q", round, resp.Status, resp.Body)
		}
		if resp := get("/prerendered"); string(resp.Body) != "<html>already rendered</html>" {
			t.Fatalf("round %d: /prerendered body %q", round, resp.Body)
		}
	}
}

func TestBaselineRedirect(t *testing.T) {
	addr := startBaseline(t, testApp(), 4, nil)
	resp, err := webtest.Get(addr, "/redirect")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 302 || resp.Header.Get("Location") != "/hello" {
		t.Fatalf("status=%d location=%q", resp.Status, resp.Header.Get("Location"))
	}
}

func TestBaselineQueryParams(t *testing.T) {
	addr := startBaseline(t, testApp(), 4, nil)
	resp, err := webtest.Get(addr, "/echo?q=forty+two")
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "q=forty two" {
		t.Fatalf("body = %q", resp.Body)
	}
}

func TestBaselineKeepAlive(t *testing.T) {
	addr := startBaseline(t, testApp(), 4, nil)
	c, err := webtest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		resp, err := c.Do("/prerendered", true)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Status != 200 {
			t.Fatalf("request %d: status %d", i, resp.Status)
		}
	}
}

func TestBaselineContentLengthExact(t *testing.T) {
	addr := startBaseline(t, testApp(), 4, nil)
	resp, err := webtest.Get(addr, "/hello")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Length"); got != fmt.Sprint(len(resp.Body)) {
		t.Fatalf("Content-Length %s != body %d", got, len(resp.Body))
	}
}

func TestBaselineCompletionEvents(t *testing.T) {
	var events sync.Map
	var n atomic.Int64
	addr := startBaseline(t, testApp(), 4, func(ev server.CompletionEvent) {
		events.Store(n.Add(1), ev)
	})
	if _, err := webtest.Get(addr, "/hello"); err != nil {
		t.Fatal(err)
	}
	if _, err := webtest.Get(addr, "/img/flowers.gif"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for n.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("completion events = %d, want 2", n.Load())
		}
		time.Sleep(time.Millisecond)
	}
	sawStatic := false
	events.Range(func(_, v any) bool {
		ev := v.(server.CompletionEvent)
		if ev.Class == server.ClassStatic && ev.Page == "/img/flowers.gif" {
			sawStatic = true
		}
		return true
	})
	if !sawStatic {
		t.Fatal("no static completion event")
	}
}

func TestBaselineConcurrentClients(t *testing.T) {
	addr := startBaseline(t, testApp(), 8, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := webtest.Get(addr, "/hello")
			if err != nil {
				errs <- err
				return
			}
			if resp.Status != 200 {
				errs <- fmt.Errorf("status %d", resp.Status)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestBaselineConfigValidation(t *testing.T) {
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	app := testApp()
	for name, cfg := range map[string]server.BaselineConfig{
		"nil app":      {DB: db, Workers: 1},
		"nil db":       {App: app, Workers: 1},
		"zero workers": {App: app, DB: db},
	} {
		if _, err := server.NewBaseline(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestBaselineGracefulShutdown stops the server with requests in flight
// and asserts — via the stage graph's stats and the database's open-
// connection gauge — that the queue drained, no workers stayed busy, and
// every database connection was released.
func TestBaselineGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	app := testApp()
	app.AddPage("/blocked", func(r *server.Request) (*server.Result, error) {
		<-release
		return &server.Result{Body: "<html>late</html>"}, nil
	})
	env := startBaselineEnv(t, app, 3, nil)

	const inFlight = 6 // 3 occupy workers, 3 wait in the accept queue
	results := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		go func() {
			resp, err := webtest.Get(env.addr, "/blocked")
			if err == nil && resp.Status != 200 {
				err = fmt.Errorf("status %d", resp.Status)
			}
			results <- err
		}()
	}
	// Wait for every request to be in: one still dialling when Stop closes
	// the listener is refused, not dropped.
	if !webtest.WaitUntil(5*time.Second, func() bool {
		st := env.srv.Graph().Stats()[0]
		return st.Busy == 3 && st.Depth >= inFlight-3
	}) {
		t.Fatal("worker pool never saturated")
	}

	// Release the handlers while Stop is draining.
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	env.srv.Stop()

	for i := 0; i < inFlight; i++ {
		if err := <-results; err != nil {
			t.Errorf("in-flight request dropped during shutdown: %v", err)
		}
	}
	for _, st := range env.srv.Graph().Stats() {
		if !st.Closed || st.Busy != 0 || st.Depth != 0 {
			t.Errorf("stage %s not drained: %+v", st.Name, st)
		}
	}
	if n := env.db.OpenConns(); n != 0 {
		t.Errorf("database connections leaked: %d still open", n)
	}
	if got := env.srv.Served(); got < inFlight {
		t.Errorf("Served = %d, want >= %d", got, inFlight)
	}
	// Stop is idempotent.
	env.srv.Stop()
}

// TestBaselineStopLeavesNoGoroutines: after Stop, no session goroutine
// outlives its connection.
func TestBaselineStopLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	env := startBaselineEnv(t, testApp(), 2, nil)
	c, err := webtest.Dial(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/hello", "/img/flowers.gif", "/nosuch"} {
		if resp, err := c.Do(path, true); err != nil || resp.Status == 0 {
			t.Fatalf("GET %s: %v %v", path, resp, err)
		}
	}
	c.Close()
	for i := 0; i < 4; i++ {
		if _, err := webtest.Get(env.addr, "/hello"); err != nil {
			t.Fatal(err)
		}
	}
	env.srv.Stop()
	if !webtest.WaitUntil(5*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Stop, %d before Serve:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
	}
}
