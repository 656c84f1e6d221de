package server_test

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stagedweb/internal/httpwire"
	"stagedweb/internal/server"
	"stagedweb/internal/webtest"
)

func TestTransportConnParseAndClose(t *testing.T) {
	tr := server.NewTransport(server.TransportConfig{})
	client, srv := net.Pipe()
	defer client.Close()
	c := server.NewConn(tr, srv)

	go func() {
		_, _ = client.Write([]byte("GET /page?q=1 HTTP/1.1\r\nHost: x\r\n\r\n"))
	}()
	line, err := c.ReadRequestLine()
	if err != nil {
		t.Fatal(err)
	}
	if line.Path != "/page" || line.RawQuery != "q=1" {
		t.Fatalf("line = %+v", line)
	}
	if c.Acquired.IsZero() {
		t.Fatal("Acquired not stamped")
	}
	req, err := c.FinishRequest(line)
	if err != nil {
		t.Fatal(err)
	}
	if req.Header.Get("Host") != "x" || req.Query["q"] != "1" {
		t.Fatalf("req = %+v", req)
	}

	// Close returns the buffers to the pools and is idempotent.
	c.Close()
	c.Close()
}

func TestTransportAwaitReadableTimesOut(t *testing.T) {
	tr := server.NewTransport(server.TransportConfig{IdleTimeout: 10 * time.Millisecond})
	client, srv := net.Pipe()
	defer client.Close()
	c := server.NewConn(tr, srv)
	defer c.Close()
	if err := c.AwaitReadable(); err == nil {
		t.Fatal("AwaitReadable returned without data before the idle timeout")
	}
}

func TestTransportAwaitReadableSeesData(t *testing.T) {
	tr := server.NewTransport(server.TransportConfig{IdleTimeout: 5 * time.Second})
	client, srv := net.Pipe()
	defer client.Close()
	c := server.NewConn(tr, srv)
	defer c.Close()
	go func() {
		time.Sleep(5 * time.Millisecond)
		_, _ = client.Write([]byte("G"))
	}()
	if err := c.AwaitReadable(); err != nil {
		t.Fatalf("AwaitReadable: %v", err)
	}
}

// TestTransportStopSparesFirstRequest pins Stop's timing: a connection
// waiting for its next request after a keep-alive exchange ends at once,
// while one whose client dialled but has sent nothing is left to deliver
// its first request, so Stop returns when that connection's idle timeout
// runs out.
func TestTransportStopSparesFirstRequest(t *testing.T) {
	const idle = 400 * time.Millisecond
	tr := server.NewTransport(server.TransportConfig{IdleTimeout: idle})
	serve := func(nc net.Conn) <-chan time.Time {
		c := server.NewConn(tr, nc)
		ended := make(chan time.Time, 1)
		go func() {
			var req httpwire.Request
			for c.AwaitReadable() == nil {
				if err := c.Parse(&req); err != nil {
					break
				}
			}
			c.Close()
			ended <- time.Now()
		}()
		return ended
	}
	keepAlive, ka := net.Pipe()
	defer keepAlive.Close()
	silent, si := net.Pipe()
	defer silent.Close()
	dialled := time.Now()
	kaEnded, siEnded := serve(ka), serve(si)
	if _, err := keepAlive.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	tr.Stop()
	took := time.Since(start)
	kaEnd, siEnd := <-kaEnded, <-siEnded
	if !kaEnd.Before(siEnd) {
		t.Errorf("the idle keep-alive connection ended %v after the silent one", kaEnd.Sub(siEnd))
	}
	if waited := siEnd.Sub(dialled); waited < idle {
		t.Errorf("the silent connection ended %v after it was wrapped, before its %v idle timeout", waited, idle)
	}
	if took > idle+time.Second {
		t.Errorf("Stop took %v with a %v idle timeout", took, idle)
	}
}

// TestTransportClosesConnAcceptedAfterStop drives Serve with a listener
// whose Accept returns a connection only once Stop has begun, closing
// the listener: the connection is closed rather than handed to the sink,
// Serve returns nil, and no goroutine is left.
func TestTransportClosesConnAcceptedAfterStop(t *testing.T) {
	defer webtest.NoNewGoroutines(t)()
	tr := server.NewTransport(server.TransportConfig{})
	client, srv := net.Pipe()
	defer client.Close()
	l := &lateListener{accepting: make(chan struct{}), closed: make(chan struct{}), late: srv}
	var sunk atomic.Int64
	served := make(chan error, 1)
	go func() {
		served <- tr.Serve(l, func(c *server.Conn) {
			sunk.Add(1)
			c.Close()
		})
	}()
	<-l.accepting
	tr.Stop()
	if err := <-served; err != nil {
		t.Errorf("Serve = %v, want nil", err)
	}
	if n := sunk.Load(); n != 0 {
		t.Errorf("the sink got %d connections accepted after Stop", n)
	}
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("client read %v, want EOF: the connection was left open", err)
	}
}

// lateListener's Accept closes accepting and blocks until Close, then
// returns late once, as a kernel listener can return a connection that
// was queued as Stop began; after that it reports net.ErrClosed.
type lateListener struct {
	acceptOnce, closeOnce sync.Once
	accepting, closed     chan struct{}
	late                  net.Conn
	taken                 atomic.Bool
}

func (l *lateListener) Accept() (net.Conn, error) {
	l.acceptOnce.Do(func() { close(l.accepting) })
	<-l.closed
	if l.taken.CompareAndSwap(false, true) {
		return l.late, nil
	}
	return nil, net.ErrClosed
}

func (l *lateListener) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return nil
}

func (l *lateListener) Addr() net.Addr { return l.late.LocalAddr() }

// nopConn is a net.Conn whose Close does nothing; newConn and Close call
// nothing else on it.
type nopConn struct{ net.Conn }

func (nopConn) Close() error { return nil }

// BenchmarkConnSetup times what accepting a connection costs the shared
// transport, wrap and close with no request: a pooled bufio reader, no
// writer (replies leave in one Write from a pooled wire buffer), and the
// Conn itself.
func BenchmarkConnSetup(b *testing.B) {
	tr := server.NewTransport(server.TransportConfig{})
	var nc net.Conn = nopConn{}
	b.ReportAllocs()
	for b.Loop() {
		server.NewConn(tr, nc).Close()
	}
}
