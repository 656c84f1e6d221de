package core_test

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/core"
	"stagedweb/internal/dbtier"
	"stagedweb/internal/sched"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/webtest"
)

func TestMain(m *testing.M) { webtest.Main(m) }

// testEnv is a running staged server and its address.
type testEnv struct {
	srv  *core.Server
	addr string
}

func startStaged(t *testing.T, app *webtest.App, mutate func(*core.Config)) *testEnv {
	t.Helper()
	return startStagedOn(t, app, mutate, nil)
}

// startStagedOn is startStaged with the listener passed through wrap
// (when non-nil) before the server accepts on it.
func startStagedOn(t *testing.T, app *webtest.App, mutate func(*core.Config), wrap func(net.Listener) net.Listener) *testEnv {
	t.Helper()
	db := webtest.KVDB(t, 1, "hello-from-db") // /hello reads it
	cfg := core.Config{
		App:            app,
		HeaderWorkers:  2,
		StaticWorkers:  2,
		GeneralWorkers: 4,
		LengthyWorkers: 1,
		RenderWorkers:  2,
		MinReserve:     1,
		Cutoff:         sched.DefaultCutoff,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	tier := dbtier.New(db, dbtier.Options{Conns: cfg.GeneralWorkers + cfg.LengthyWorkers, Clock: cfg.Clock, Scale: cfg.Scale})
	t.Cleanup(tier.Close) // after the server stops: cleanups run last-in first-out
	cfg.DB = tier.Conn()
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
	return &testEnv{srv: s, addr: addr}
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
	// join over an int parses but fails at render time, after the filler.
	app.AddTemplate("broken.html", filler+"{{ msg|join }}"+filler)
	if _, err := app.Templates().Get("broken.html"); err != nil {
		t.Fatalf("broken.html must parse and fail only mid-render: %v", err)
	}
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
	var classes completedClasses
	env := startStaged(t, app, func(cfg *core.Config) {
		cfg.Scale = clock.Timescale(100) // 30ms wall = 3s paper > 2s cutoff
		cfg.OnComplete = classes.record
	})
	for _, page := range []string{"/slow", "/hello"} {
		if _, err := webtest.Get(env.addr, page); err != nil {
			t.Fatal(err)
		}
	}
	if classes.of(t, "/slow") != server.ClassLengthy {
		t.Fatal("/slow not classified lengthy")
	}
	if classes.of(t, "/hello") != server.ClassQuick {
		t.Fatal("/hello misclassified lengthy")
	}
}

// completedClasses keeps the class of each page's latest completion
// event: the classifier's verdict once that request's own
// data-generation time is recorded.
type completedClasses struct {
	mu sync.Mutex
	m  map[string]server.Class
}

func (c *completedClasses) record(ev server.CompletionEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[string]server.Class{}
	}
	c.m[ev.Page] = ev.Class
}

// of waits for page's completion event, which fires after the reply is
// written, and returns its class.
func (c *completedClasses) of(t *testing.T, page string) server.Class {
	t.Helper()
	var class server.Class
	if !webtest.WaitUntil(5*time.Second, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		var ok bool
		class, ok = c.m[page]
		return ok
	}) {
		t.Fatalf("no completion event for %s", page)
	}
	return class
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
	var names []string
	for _, st := range env.srv.Graph().Stats() {
		names = append(names, st.Name)
	}
	if want := []string{"header", "static", "general", "lengthy", "render"}; !slices.Equal(names, want) {
		t.Fatalf("stages %v, want %v", names, want)
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
	if !webtest.WaitUntil(5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) >= 2
	}) {
		t.Fatal("fewer than 2 completion events")
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
	if !webtest.WaitUntil(2*time.Second, func() bool { return env.srv.Served() >= 64 }) {
		t.Fatalf("Served = %d, want >= 64", env.srv.Served())
	}
}

// TestReserveStaysWithinGeneralPool holds all 21 general slots with
// quick requests, so the controller reads t_spare 0 once a paper second
// (a millisecond here), and checks t_reserve never leaves [min, 21]: a
// minimum of 0 stays 0, and one of 16, where 3/4 of the pool (15) is no
// cap, grows to the pool's size and stops there instead of running away.
// A minimum of 30 is the whole pool, 21.
func TestReserveStaysWithinGeneralPool(t *testing.T) {
	for _, minR := range []int{0, 16, 30} {
		t.Run(fmt.Sprintf("minreserve=%d", minR), func(t *testing.T) {
			const general = 21
			app := stagedApp()
			gate := make(chan struct{})
			app.AddPage("/hold", func(*server.Request) (*server.Result, error) {
				<-gate
				return &server.Result{Body: "done"}, nil
			})
			env := startStaged(t, app, func(cfg *core.Config) {
				cfg.Scale = clock.Timescale(1000)
				cfg.GeneralWorkers = general
				cfg.MinReserve = minR
			})
			open := sync.OnceFunc(func() { close(gate) })
			t.Cleanup(open) // before the server stops
			var wg sync.WaitGroup
			for range general {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := webtest.Get(env.addr, "/hold"); err != nil {
						t.Errorf("GET /hold: %v", err)
					}
				}()
			}
			waitUntil(t, func() bool { return env.srv.Spare() == 0 })
			peak := 0
			for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
				r := env.srv.Reserve()
				if r < min(minR, general) || r > general {
					t.Fatalf("t_reserve %d outside [%d, %d] with t_spare 0", r, min(minR, general), general)
				}
				peak = max(peak, r)
				time.Sleep(100 * time.Microsecond)
			}
			want := general // the grow rule's first step passes the cap
			if minR == 0 {
				want = 0
			}
			if peak != want {
				t.Errorf("t_reserve peaked at %d, want %d", peak, want)
			}
			open()
			wg.Wait()
		})
	}
}

func TestStagedConfigValidation(t *testing.T) {
	conn := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()}).Connect()
	defer conn.Close()
	valid := core.Config{App: stagedApp(), DB: conn, Cutoff: sched.DefaultCutoff,
		HeaderWorkers: 1, StaticWorkers: 1, GeneralWorkers: 1, LengthyWorkers: 1, RenderWorkers: 1}
	for name, mutate := range map[string]func(*core.Config){
		"nil App":              func(c *core.Config) { c.App = nil },
		"nil DB":               func(c *core.Config) { c.DB = nil },
		"zero lengthy pool":    func(c *core.Config) { c.LengthyWorkers = 0 },
		"negative render pool": func(c *core.Config) { c.RenderWorkers = -1 },
		"zero cutoff":          func(c *core.Config) { c.Cutoff = 0 },
		"negative reserve":     func(c *core.Config) { c.MinReserve = -1 },
	} {
		cfg := valid
		mutate(&cfg)
		if _, err := core.New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	s, err := core.New(valid)
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	s.Stop()
}

// TestStagedGracefulShutdownDrains stops the pipeline with requests in
// flight and asserts — via the stage graph's stats and the database's
// open-connection gauge, once the tier is closed — that every stage
// drained in flow order, no workers stayed busy, and the dynamic pools
// released their connections.
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
		for _, st := range env.srv.Graph().Stats() {
			if st.Name == core.StageGeneral {
				return st.Busy == 3 && st.Depth >= inFlight-3
			}
		}
		return false
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
	if got := env.srv.Served(); got < inFlight {
		t.Errorf("Served = %d, want >= %d", got, inFlight)
	}
	// Stop is idempotent.
	env.srv.Stop()
}
