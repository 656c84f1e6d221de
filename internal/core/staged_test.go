package core_test

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/core"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/webtest"
)

// testEnv is a running staged server plus its database.
type testEnv struct {
	srv  *core.Server
	addr string
	db   *sqldb.DB
}

func startStaged(t *testing.T, app *webtest.App, mutate func(*core.Config)) *testEnv {
	t.Helper()
	return startStagedOn(t, app, mutate, nil)
}

// startStagedOn is startStaged with the listener passed through wrap
// (when non-nil) before the server accepts on it.
func startStagedOn(t *testing.T, app *webtest.App, mutate func(*core.Config), wrap func(net.Listener) net.Listener) *testEnv {
	t.Helper()
	db := kvDB(t)
	cfg := core.Config{
		App:            app,
		DB:             db,
		HeaderWorkers:  2,
		StaticWorkers:  2,
		GeneralWorkers: 4,
		LengthyWorkers: 1,
		RenderWorkers:  2,
		MinReserve:     1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, addr, err := webtest.Listen()
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		l = wrap(l)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	t.Cleanup(func() {
		s.Stop()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return &testEnv{srv: s, addr: addr, db: db}
}

// kvDB is a zero-cost database with one row, which /hello reads.
func kvDB(t *testing.T) *sqldb.DB {
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
	return db
}

func stagedApp() *webtest.App {
	app := webtest.NewApp()
	app.AddTemplate("page.html", "<html><body>{{ msg }}</body></html>")
	app.AddStatic("/style.css", []byte("body { color: red }"), "text/css")
	app.AddPage("/hello", func(r *server.Request) (*server.Result, error) {
		rs, err := r.DB.Query("SELECT v FROM kv WHERE id = ?", 1)
		if err != nil {
			return nil, err
		}
		// The paper's deferred style: return (template name, data).
		return &server.Result{Template: "page.html", Data: map[string]any{"msg": rs.Str(0, "v")}}, nil
	})
	app.AddPage("/legacy", func(r *server.Request) (*server.Result, error) {
		// Backward compatibility: an unmodified handler returning an
		// already-rendered string (Section 3.1).
		return &server.Result{Body: "<html>legacy prerendered</html>"}, nil
	})
	app.AddPage("/boom", func(r *server.Request) (*server.Result, error) {
		return nil, fmt.Errorf("nope")
	})
	return app
}

func TestStagedDeferredRendering(t *testing.T) {
	env := startStaged(t, stagedApp(), nil)
	resp, err := webtest.Get(env.addr, "/hello")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	if want := "<html><body>hello-from-db</body></html>"; string(resp.Body) != want {
		t.Fatalf("body = %q", resp.Body)
	}
	if got := resp.Header.Get("Content-Length"); got != fmt.Sprint(len(resp.Body)) {
		t.Fatalf("Content-Length %q vs body %d", got, len(resp.Body))
	}
}

func TestStagedBackwardCompatiblePrerendered(t *testing.T) {
	env := startStaged(t, stagedApp(), nil)
	resp, err := webtest.Get(env.addr, "/legacy")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "<html>legacy prerendered</html>" {
		t.Fatalf("status=%d body=%q", resp.Status, resp.Body)
	}
}

func TestStagedStatic(t *testing.T) {
	env := startStaged(t, stagedApp(), nil)
	resp, err := webtest.Get(env.addr, "/style.css")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || resp.Header.Get("Content-Type") != "text/css" {
		t.Fatalf("status=%d ct=%q", resp.Status, resp.Header.Get("Content-Type"))
	}
}

func TestStagedNotFoundAndError(t *testing.T) {
	env := startStaged(t, stagedApp(), nil)
	if resp, err := webtest.Get(env.addr, "/nosuch"); err != nil || resp.Status != 404 {
		t.Fatalf("dynamic 404: %v %v", resp, err)
	}
	if resp, err := webtest.Get(env.addr, "/missing.png"); err != nil || resp.Status != 404 {
		t.Fatalf("static 404: %v %v", resp, err)
	}
	if resp, err := webtest.Get(env.addr, "/boom"); err != nil || resp.Status != 500 {
		t.Fatalf("500: %v %v", resp, err)
	}
}

// The render stage's failure path: a template that fails half-way down
// is a clean 500, and pages rendered afterwards are intact.
func TestStagedRenderErrorMidPage(t *testing.T) {
	app := stagedApp()
	filler := strings.Repeat("<p>filler</p>", 400)
	app.AddTemplate("broken.html", filler+"{{ msg|divisibleby:0 }}"+filler)
	app.AddPage("/broken", func(*server.Request) (*server.Result, error) {
		return &server.Result{Template: "broken.html", Data: map[string]any{"msg": 1}}, nil
	})
	env := startStaged(t, app, nil)
	for round := 0; round < 3; round++ {
		if resp, err := webtest.Get(env.addr, "/broken"); err != nil || resp.Status != 500 || string(resp.Body) != "render error" {
			t.Fatalf("round %d: /broken: %v %v", round, resp, err)
		}
		resp, err := webtest.Get(env.addr, "/hello")
		if err != nil || resp.Status != 200 || string(resp.Body) != "<html><body>hello-from-db</body></html>" {
			t.Fatalf("round %d: /hello after the failed render: %v %v", round, resp, err)
		}
	}
}

func TestStagedKeepAliveRecycling(t *testing.T) {
	env := startStaged(t, stagedApp(), nil)
	c, err := webtest.Dial(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		resp, err := c.Do("/hello", true)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Status != 200 {
			t.Fatalf("request %d: status %d", i, resp.Status)
		}
	}
	// Mixed: static on the same connection.
	resp, err := c.Do("/style.css", true)
	if err != nil || resp.Status != 200 {
		t.Fatalf("static on keep-alive: %v %v", resp, err)
	}
}

func TestStagedClassifierLearnsLengthy(t *testing.T) {
	app := stagedApp()
	app.AddPage("/slow", func(r *server.Request) (*server.Result, error) {
		time.Sleep(30 * time.Millisecond) // 3s of paper time at scale 100
		return &server.Result{Body: "slow done"}, nil
	})
	env := startStaged(t, app, func(cfg *core.Config) {
		cfg.Scale = clock.Timescale(100) // 30ms wall = 3s paper > 2s cutoff
	})
	if _, err := webtest.Get(env.addr, "/slow"); err != nil {
		t.Fatal(err)
	}
	cls := env.srv.Classifier()
	if !cls.Lengthy("/slow") {
		t.Fatalf("mean %v not classified lengthy", cls.Mean("/slow"))
	}
	if cls.Lengthy("/hello") {
		t.Fatal("/hello misclassified lengthy")
	}
}

// TestStagedQuickUnaffectedByLengthyFlood is the paper's headline
// behaviour in miniature: once the server learns a page is lengthy, a
// flood of lengthy requests saturates the lengthy pool while quick
// requests keep being served promptly by reserved general workers.
func TestStagedQuickUnaffectedByLengthyFlood(t *testing.T) {
	app := stagedApp()
	var slowCalls atomic.Int64
	app.AddPage("/slow", func(r *server.Request) (*server.Result, error) {
		slowCalls.Add(1)
		time.Sleep(100 * time.Millisecond)
		return &server.Result{Body: "slow done"}, nil
	})
	env := startStaged(t, app, func(cfg *core.Config) {
		cfg.Scale = clock.Timescale(100)
		cfg.GeneralWorkers = 4
		cfg.LengthyWorkers = 1
		cfg.MinReserve = 4 // reserve the whole general pool for quick work
	})

	// Teach the classifier that /slow is lengthy.
	if _, err := webtest.Get(env.addr, "/slow"); err != nil {
		t.Fatal(err)
	}

	// Flood with lengthy requests (they overflow the 1-worker lengthy
	// pool and queue there, not in the general pool).
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = webtest.Get(env.addr, "/slow")
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the flood queue up

	// Quick requests must still complete fast.
	start := time.Now()
	resp, err := webtest.Get(env.addr, "/hello")
	quickLatency := time.Since(start)
	if err != nil || resp.Status != 200 {
		t.Fatalf("quick request failed during flood: %v %v", resp, err)
	}
	if quickLatency > 50*time.Millisecond {
		t.Fatalf("quick latency %v during lengthy flood; reservation failed", quickLatency)
	}
	wg.Wait()
}

func TestStagedQueueLensAndIntrospection(t *testing.T) {
	env := startStaged(t, stagedApp(), nil)
	lens := env.srv.QueueLens()
	for _, k := range []string{"header", "static", "general", "lengthy", "render"} {
		if _, ok := lens[k]; !ok {
			t.Fatalf("QueueLens missing %q: %v", k, lens)
		}
	}
	if env.srv.GeneralQueueLen() != 0 || env.srv.LengthyQueueLen() != 0 {
		t.Fatal("queues should be empty at idle")
	}
	if env.srv.Spare() != 4 {
		t.Fatalf("Spare = %d, want 4", env.srv.Spare())
	}
	if env.srv.Reserve() != 1 {
		t.Fatalf("Reserve = %d, want min 1", env.srv.Reserve())
	}
	if s := env.srv.String(); s == "" {
		t.Fatal("String empty")
	}
}

func TestStagedCompletionEvents(t *testing.T) {
	var mu sync.Mutex
	var events []server.CompletionEvent
	app := stagedApp()
	env := startStaged(t, app, func(cfg *core.Config) {
		cfg.OnComplete = func(ev server.CompletionEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}
	})
	if _, err := webtest.Get(env.addr, "/hello"); err != nil {
		t.Fatal(err)
	}
	if _, err := webtest.Get(env.addr, "/style.css"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(events)
		mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("events = %d, want 2", n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	classes := map[server.Class]bool{}
	for _, ev := range events {
		classes[ev.Class] = true
		if ev.ServerTime < 0 {
			t.Fatalf("negative server time: %+v", ev)
		}
	}
	if !classes[server.ClassStatic] || !classes[server.ClassQuick] {
		t.Fatalf("classes seen: %v", classes)
	}
}

func TestStagedManyConcurrentClients(t *testing.T) {
	env := startStaged(t, stagedApp(), func(cfg *core.Config) {
		cfg.GeneralWorkers = 8
		cfg.RenderWorkers = 4
	})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			path := "/hello"
			if n%3 == 0 {
				path = "/style.css"
			}
			resp, err := webtest.Get(env.addr, path)
			if err != nil {
				errs <- err
				return
			}
			if resp.Status != 200 {
				errs <- fmt.Errorf("GET %s: status %d", path, resp.Status)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// A request is counted after its reply is flushed, so the last client
	// can have its response a moment before the count has it.
	for deadline := time.Now().Add(2 * time.Second); env.srv.Served() < 64 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if env.srv.Served() < 64 {
		t.Fatalf("Served = %d, want >= 64", env.srv.Served())
	}
}

func TestStagedConfigValidation(t *testing.T) {
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	if _, err := core.New(core.Config{DB: db}); err == nil {
		t.Fatal("nil App accepted")
	}
	if _, err := core.New(core.Config{App: stagedApp()}); err == nil {
		t.Fatal("nil DB accepted")
	}
}

// TestStagedGracefulShutdownDrains stops the pipeline with requests in
// flight and asserts — via the stage graph's stats and the database's
// open-connection gauge — that every stage drained in flow order, no
// workers stayed busy, and the dynamic pools released their connections.
func TestStagedGracefulShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	app := stagedApp()
	app.AddPage("/blocked", func(r *server.Request) (*server.Result, error) {
		<-release
		return &server.Result{Template: "page.html", Data: map[string]any{"msg": "late"}}, nil
	})
	env := startStaged(t, app, func(cfg *core.Config) {
		cfg.GeneralWorkers = 3
		cfg.LengthyWorkers = 1
		cfg.RenderWorkers = 2
	})

	const inFlight = 6 // 3 occupy general workers, the rest queue
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
		g, _ := env.srv.Graph().Stage("general")
		st := g.Stats()
		return st.Busy == 3 && st.Depth >= inFlight-3
	}) {
		t.Fatal("general stage never saturated")
	}

	// Release the handlers while Stop is draining the pipeline: the
	// queued requests must still flow general -> render -> client.
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
