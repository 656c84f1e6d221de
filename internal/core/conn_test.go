package core_test

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/core"
	"stagedweb/internal/server"
	"stagedweb/internal/webtest"
)

// TestIdleConnsDoNotPinHeaderWorkers: a connection that has sent nothing
// holds no header slot, so as many silent connections as there are
// header workers do not stall anyone else's request.
func TestIdleConnsDoNotPinHeaderWorkers(t *testing.T) {
	env := startStaged(t, stagedApp(), nil) // HeaderWorkers: 2
	for i := 0; i < 2; i++ {
		nc, err := net.Dial("tcp", env.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
	}
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := webtest.Get(env.addr, "/hello")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("request stalled %.1fs behind 2 idle connections", time.Since(start).Seconds())
	}
}

// TestStagedPoolLimitsHold drives more clients than there are slots: the
// general pool's bound holds as the handler sees it, requests wait in
// its line, and every stage completes exactly the requests it served.
func TestStagedPoolLimitsHold(t *testing.T) {
	const clients, perClient, general = 16, 4, 2
	var generating, peak atomic.Int64
	app := stagedApp()
	app.AddPage("/gauge", func(*server.Request) (*server.Result, error) {
		n := generating.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(time.Millisecond)
		generating.Add(-1)
		return &server.Result{Template: "page.html", Data: map[string]any{"msg": "g"}}, nil
	})
	env := startStaged(t, app, func(cfg *core.Config) {
		cfg.GeneralWorkers = general
		cfg.RenderWorkers = 1
	})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := webtest.Dial(env.addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for r := 0; r < perClient; r++ {
				path := "/gauge"
				if r%2 == 1 {
					path = "/style.css"
				}
				if resp, err := c.Do(path, true); err != nil || resp.Status != 200 {
					t.Errorf("GET %s: %v %v", path, resp, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	env.srv.Stop()

	if p := peak.Load(); p > general {
		t.Errorf("%d requests generated data at once on %d general workers", p, general)
	}
	const total, dynamic = clients * perClient, clients * perClient / 2
	if got := env.srv.Served(); got != total {
		t.Fatalf("Served = %d, want %d", got, total)
	}
	want := map[string]int64{
		core.StageHeader: total, core.StageStatic: total - dynamic,
		core.StageGeneral: dynamic, core.StageLengthy: 0, core.StageRender: dynamic,
	}
	for _, st := range env.srv.Graph().Stats() {
		if st.Completed != want[st.Name] || st.Enqueued != st.Completed || st.Shed != 0 {
			t.Errorf("stage %s: completed %d of %d: %+v", st.Name, st.Completed, want[st.Name], st)
		}
		if st.Name == core.StageGeneral && st.MaxDepth == 0 {
			t.Errorf("no request ever waited for one of %d general slots among %d clients", general, clients)
		}
	}
}

// TestStagedStopLeavesNoGoroutines: after Stop, the connection
// goroutines — an idle keep-alive one included — and the controller are
// gone.
func TestStagedStopLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	env := startStaged(t, stagedApp(), nil)
	idle, err := webtest.Dial(env.addr) // left open: Stop must end it
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if resp, err := idle.Do("/hello", true); err != nil || resp.Status != 200 {
		t.Fatalf("keep-alive request: %v %v", resp, err)
	}
	for _, path := range []string{"/hello", "/style.css", "/legacy", "/nosuch"} {
		if _, err := webtest.Get(env.addr, path); err != nil {
			t.Fatal(err)
		}
	}
	env.srv.Stop()
	if !webtest.WaitUntil(5*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Stop, %d before Serve:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
	}
}

// TestStaticConnAllocCeiling pins what a connection costs: accept, one
// static request, close. The static file is charged a cost long enough
// for clock.Precise to sleep on a timer, as paper-time runs do. The
// count is process-wide, so it includes the test's own dial.
func TestStaticConnAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops make allocation counts meaningless")
	}
	env := startStaged(t, stagedApp(), func(cfg *core.Config) {
		cfg.NoReserve = true
		cfg.Clock = clock.Precise{}
		cfg.Cost = server.WorkCost{StaticBase: time.Millisecond}
	})
	req := []byte("GET /style.css HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
	buf := make([]byte, 1024)
	once := func() {
		nc, err := net.Dial("tcp", env.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if _, err := nc.Write(req); err != nil {
			t.Fatal(err)
		}
		// The server closes after the reply: read to EOF.
		n := 0
		for {
			m, err := nc.Read(buf[n:])
			n += m
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.HasPrefix(buf[:n], []byte("HTTP/1.1 200")) {
			t.Fatalf("reply %q", buf[:n])
		}
	}
	once()
	n := testing.AllocsPerRun(200, once)
	t.Logf("%.1f allocations per connection", n)
	if n > connAllocCeiling {
		t.Errorf("accept, static request, close: %.1f allocations, ceiling %d", n, connAllocCeiling)
	}
}

// connAllocCeiling is this design's count: the per-worker-goroutine one
// it replaced read 25, and a connection goroutine that charged its first
// sleep to a fresh runtime timer would read 25 again.
const connAllocCeiling = 24
