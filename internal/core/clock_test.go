package core_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/core"
	"stagedweb/internal/dbtier"
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
	srv, err := core.New(core.Config{
		App:            app,
		DB:             tier.Conn(),
		Clock:          manual,
		Scale:          clock.RealTime,
		NoReserve:      true, // no controller ticker: the only manual waiter is the query's cost sleep
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
	// The handler is now asleep in the database's 3 s cost charge;
	// advance paper time past it.
	manual.BlockUntilWaiters(1)
	manual.Advance(3 * time.Second)
	if err := <-got; err != nil {
		t.Fatal(err)
	}

	if !srv.Classifier().Lengthy("/slow") {
		t.Fatalf("classifier mean for /slow = quick; 3 s of injected-clock data generation was not recorded")
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
	env.tier.Close()
	if n := env.db.OpenConns(); n != 0 {
		t.Fatalf("%d database connections still open after Stop", n)
	}
}
