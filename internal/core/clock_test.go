package core_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
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

// TestClassifierSeesInjectedClockDurations is the regression test for
// the wall-clock timing bug: data-generation time must be measured on
// the injected Clock, not time.Now(). Under a manual clock a 3-paper-
// second query advances only the manual clock, so before the fix the
// classifier recorded ~0 and no page could ever classify lengthy.
func TestClassifierSeesInjectedClockDurations(t *testing.T) {
	manual := clock.NewManual(time.Unix(1_700_000_000, 0))
	db := sqldb.Open(sqldb.Options{
		Clock: manual,
		// Every statement costs 3 paper-seconds — over the 2 s cutoff.
		Cost: &sqldb.CostModel{PerStatement: 3 * time.Second},
	})
	webtest.NoOpenConns(t, db)
	db.MustCreateTable(sqldb.Schema{
		Table:      "kv",
		Columns:    []sqldb.Column{{Name: "id", Type: sqldb.Int}, {Name: "v", Type: sqldb.String}},
		PrimaryKey: "id",
	})

	app := webtest.NewApp()
	app.AddTemplate("page.html", "<html>{{ n }}</html>")
	app.AddPage("/slow", func(r *server.Request) (*server.Result, error) {
		rs, err := r.DB.Query("SELECT v FROM kv")
		if err != nil {
			return nil, err
		}
		return &server.Result{Template: "page.html", Data: map[string]any{"n": rs.Len()}}, nil
	})

	tier := dbtier.New(db, dbtier.Options{Conns: 3, Clock: manual})
	defer tier.Close()
	var classes completedClasses
	srv, err := core.New(core.Config{
		App:            app,
		DB:             tier.Conn(),
		OnComplete:     classes.record,
		Clock:          manual,
		Scale:          clock.RealTime,
		Cutoff:         sched.DefaultCutoff,
		HeaderWorkers:  1,
		StaticWorkers:  1,
		GeneralWorkers: 2,
		LengthyWorkers: 1,
		RenderWorkers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, addr, err := webtest.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Stop()

	got := make(chan error, 1)
	go func() {
		_, err := webtest.Get(addr, "/slow")
		got <- err
	}()
	// The handler is now asleep in the database's 3 s cost charge, beside
	// the controller's ticker; advance paper time past it.
	manual.BlockUntilWaiters(2)
	manual.Advance(3 * time.Second)
	if err := <-got; err != nil {
		t.Fatal(err)
	}

	if classes.of(t, "/slow") != server.ClassLengthy {
		t.Fatalf("/slow completed quick; 3 s of injected-clock data generation was not recorded")
	}
}

// TestStopClosesParkedKeepAlives asserts shutdown promptness: a parked
// keep-alive connection must be closed by Stop, not left to age out the
// 10 s wall idle timeout.
func TestStopClosesParkedKeepAlives(t *testing.T) {
	env := startStaged(t, stagedApp(), nil)

	nc, err := net.Dial("tcp", env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := fmt.Fprintf(nc, "GET /hello HTTP/1.1\r\nHost: test\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	// Read the full response (headers + Content-Length body) so the
	// server parks the connection for the next pipelined request.
	br := bufio.NewReader(nc)
	contentLen := 0
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if n, ok := strings.CutPrefix(strings.TrimSpace(line), "Content-Length: "); ok {
			fmt.Sscanf(n, "%d", &contentLen)
		}
		if line == "\r\n" {
			break
		}
	}
	if _, err := io.ReadFull(br, make([]byte, contentLen)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let recycle park the connection

	start := time.Now()
	env.srv.Stop()
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Stop took %v; parked connections should not delay shutdown", elapsed)
	}
	// The server side must close the parked connection promptly — well
	// inside the 10 s idle timeout the old code waited out.
	_ = nc.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := br.ReadByte(); err == nil || os.IsTimeout(err) {
		t.Fatalf("parked connection still open after Stop (read err = %v)", err)
	}
}

// TestReserveControllerCountsLengthyAsSpare: the reserve controller reads
// a general slot held by a request Table 1 classified lengthy as spare,
// since the reserve already gave that capacity up, and only slots held
// by quick requests as a spike. Three lengthy requests and one quick one
// fill the general pool: read raw, t_spare 0 is under t_reserve 1 and the
// grow rule takes the reserve to its cap; read as the controller must,
// it is 3 and the reserve stays at its minimum. Four quick requests still
// grow it. A first /slow request held for 3 s of manual time teaches the
// classifier that /slow is lengthy.
func TestReserveControllerCountsLengthyAsSpare(t *testing.T) {
	manual := clock.NewManual(time.Unix(1_700_000_000, 0))
	app := stagedApp()
	slowGate, quickGate, spikeGate := make(chan struct{}), make(chan struct{}), make(chan struct{})
	for path, gate := range map[string]chan struct{}{"/slow": slowGate, "/quick": quickGate, "/spike": spikeGate} {
		app.AddPage(path, func(*server.Request) (*server.Result, error) {
			<-gate
			return &server.Result{Body: "done"}, nil
		})
	}
	env := startStaged(t, app, func(cfg *core.Config) {
		cfg.Clock = manual
		cfg.Scale = clock.RealTime
		cfg.GeneralWorkers = 4
		cfg.LengthyWorkers = 1
		cfg.MinReserve = 1
	})
	openSlow := sync.OnceFunc(func() { close(slowGate) })
	openQuick := sync.OnceFunc(func() { close(quickGate) })
	openSpike := sync.OnceFunc(func() { close(spikeGate) })
	t.Cleanup(func() { openSlow(); openQuick(); openSpike() }) // before the server stops

	var wg sync.WaitGroup
	get := func(path string, spareAfter int) {
		t.Helper()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := webtest.Get(env.addr, path); err != nil {
				t.Errorf("GET %s: %v", path, err)
			}
		}()
		waitUntil(t, func() bool { return env.srv.Spare() == spareAfter })
	}
	// The controller's ticks in those 3 s read t_spare 3, over t_reserve
	// 1, so the reserve stays at its minimum.
	get("/slow", 3)
	manual.Advance(3 * time.Second)
	slowGate <- struct{}{}
	wg.Wait()
	waitUntil(t, func() bool { return env.srv.Spare() == 4 })
	g0, l0, _ := env.srv.DispatchCounts()

	// t_spare 4, 3, 2 exceed t_reserve 1: Table 1 sends each lengthy
	// request to the general pool.
	for i := 1; i <= 3; i++ {
		get("/slow", 4-i)
	}
	get("/quick", 0)
	if g, l, _ := env.srv.DispatchCounts(); g-g0 != 4 || l-l0 != 0 {
		t.Fatalf("dispatched general %d, lengthy %d; want 4, 0", g-g0, l-l0)
	}
	for tick := 0; tick < 4; tick++ {
		manual.Advance(time.Second)
		time.Sleep(5 * time.Millisecond) // let the controller take the tick
		if r := env.srv.Reserve(); r != 1 {
			t.Fatalf("tick %d: t_reserve grew to %d while lengthy requests held the general slots", tick, r)
		}
	}
	openSlow()
	openQuick()
	wg.Wait()
	waitUntil(t, func() bool { return env.srv.Spare() == 4 })

	for i := 1; i <= 4; i++ {
		get("/spike", 4-i)
	}
	manual.Advance(time.Second)
	waitUntil(t, func() bool { return env.srv.Reserve() > 1 })
	openSpike()
	wg.Wait()
}

// TestReserveControllerUpdatesOncePerTick: Serve runs the t_reserve
// update once per paper second on the server's clock, with the t_spare
// the server reads. Sixteen quick requests hold every general slot, so
// t_spare is 0 and each tick applies the grow rule once: from the
// minimum 1 to 1+1+1 = 3, then to 3+3+1 = 7, under the cap of 12.
func TestReserveControllerUpdatesOncePerTick(t *testing.T) {
	manual := clock.NewManual(time.Unix(1_700_000_000, 0))
	app := stagedApp()
	gate := make(chan struct{})
	app.AddPage("/quick", func(*server.Request) (*server.Result, error) {
		<-gate
		return &server.Result{Body: "done"}, nil
	})
	env := startStaged(t, app, func(cfg *core.Config) {
		cfg.Clock = manual
		cfg.Scale = clock.RealTime
		cfg.GeneralWorkers = 16
		cfg.MinReserve = 1
	})
	open := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(open) // before the server stops

	var wg sync.WaitGroup
	defer wg.Wait()
	defer open()
	for i := 1; i <= 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := webtest.Get(env.addr, "/quick"); err != nil {
				t.Errorf("GET /quick: %v", err)
			}
		}()
		waitUntil(t, func() bool { return env.srv.Spare() == 16-i })
	}
	for tick, want := range []int{3, 7} {
		manual.Advance(time.Second)
		waitUntil(t, func() bool { return env.srv.Reserve() == want })
		time.Sleep(5 * time.Millisecond) // a second update would land here
		if r := env.srv.Reserve(); r != want {
			t.Fatalf("tick %d: t_reserve %d, want %d", tick+1, r, want)
		}
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	if !webtest.WaitUntil(5*time.Second, cond) {
		t.Fatal("condition not reached")
	}
}
