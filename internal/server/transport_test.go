package server_test

import (
	"net"
	"testing"
	"time"

	"stagedweb/internal/httpwire"
	"stagedweb/internal/server"
)

func TestTransportConnParseAndClose(t *testing.T) {
	tr := server.NewTransport(server.TransportConfig{})
	client, srv := net.Pipe()
	defer client.Close()
	c := tr.NewConn(srv)

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
	c := tr.NewConn(srv)
	defer c.Close()
	if err := c.AwaitReadable(); err == nil {
		t.Fatal("AwaitReadable returned without data before the idle timeout")
	}
}

func TestTransportAwaitReadableSeesData(t *testing.T) {
	tr := server.NewTransport(server.TransportConfig{IdleTimeout: 5 * time.Second})
	client, srv := net.Pipe()
	defer client.Close()
	c := tr.NewConn(srv)
	defer c.Close()
	go func() {
		time.Sleep(5 * time.Millisecond)
		_, _ = client.Write([]byte("G"))
	}()
	if err := c.AwaitReadable(); err != nil {
		t.Fatalf("AwaitReadable: %v", err)
	}
}

// TestTransportShutdownSparesFirstRequest pins Shutdown's timing: a
// connection waiting for its next request after a keep-alive exchange
// ends at once, while one whose client dialled but has sent nothing is
// left to deliver its first request, so Shutdown returns when that
// connection's idle timeout runs out.
func TestTransportShutdownSparesFirstRequest(t *testing.T) {
	const idle = 400 * time.Millisecond
	tr := server.NewTransport(server.TransportConfig{IdleTimeout: idle})
	serve := func(nc net.Conn) <-chan time.Time {
		c := tr.NewConn(nc)
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
	tr.Shutdown()
	took := time.Since(start)
	kaEnd, siEnd := <-kaEnded, <-siEnded
	if !kaEnd.Before(siEnd) {
		t.Errorf("the idle keep-alive connection ended %v after the silent one", kaEnd.Sub(siEnd))
	}
	if waited := siEnd.Sub(dialled); waited < idle {
		t.Errorf("the silent connection ended %v after it was wrapped, before its %v idle timeout", waited, idle)
	}
	if took > idle+time.Second {
		t.Errorf("Shutdown took %v with a %v idle timeout", took, idle)
	}
}

// nopConn is a net.Conn whose Close does nothing; NewConn and Close call
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
		tr.NewConn(nc).Close()
	}
}
