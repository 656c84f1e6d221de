package cluster_test

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"stagedweb/internal/cluster"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/stage"
	"stagedweb/internal/variant"
	"stagedweb/internal/webtest"
)

// cannedShard is a variant.Instance that answers every request on a
// keep-alive connection with the same bytes, allocating nothing per
// request — so a relay test sees exactly what the balancer adds, and an
// allocation count is the balancer's alone.
type cannedShard struct {
	reply []byte
	mu    sync.Mutex
	l     net.Listener
	conns []net.Conn
	wg    sync.WaitGroup
}

func (s *cannedShard) Serve(l net.Listener) error {
	s.mu.Lock()
	s.l = l
	s.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			return nil
		}
		s.mu.Lock()
		s.conns = append(s.conns, c)
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			buf, n := make([]byte, 4096), 0
			for {
				m, err := c.Read(buf[n:])
				if err != nil {
					return
				}
				// Bodiless requests: one ends at each blank line.
				for n += m; ; {
					end := bytes.Index(buf[:n], []byte("\r\n\r\n"))
					if end < 0 {
						break
					}
					n = copy(buf, buf[end+4:n])
					if _, err := c.Write(s.reply); err != nil {
						return
					}
				}
			}
		}()
	}
}

func (s *cannedShard) Stop() {
	s.mu.Lock()
	if s.l != nil {
		_ = s.l.Close()
	}
	for _, c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *cannedShard) Graph() *stage.Graph     { return stage.NewGraph() }
func (s *cannedShard) Probes() []variant.Probe { return nil }

// serveBalancer starts a balancer over the shards; "/fan…" paths fan out,
// the rest route by target hash. wrap, when non-nil, wraps the client-
// facing listener.
func serveBalancer(t *testing.T, shards []variant.Instance, wrap func(net.Listener) net.Listener) (*cluster.Balancer, string) {
	t.Helper()
	b, err := cluster.New(cluster.Options{Shards: len(shards), Retries: -1}, shards, func(path string, _ map[string]string) cluster.Decision {
		return cluster.Decision{Fanout: strings.HasPrefix(path, "/fan")}
	})
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
	done := make(chan struct{})
	go func() { defer close(done); _ = b.Serve(l) }()
	t.Cleanup(func() { b.Stop(); <-done })
	return b, addr
}

// exchange writes req and reads len(buf) reply bytes into buf.
func exchange(tb testing.TB, nc net.Conn, req, buf []byte) {
	tb.Helper()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Write(req); err != nil {
		tb.Fatal(err)
	}
	if _, err := io.ReadFull(nc, buf); err != nil {
		tb.Fatalf("reading the relayed reply: %v (got %q)", err, buf)
	}
}

const (
	cannedReply = "HTTP/1.1 200 OK\r\nServer: stub\r\nX-Zed: 26\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n" +
		"Connection: keep-alive\r\nX-Alpha: 1\r\n\r\nhello"
	keepAliveGET = "GET /img/thumb_7.gif HTTP/1.1\r\nHost: tpcw\r\nUser-Agent: stagedbench\r\nConnection: keep-alive\r\nX-Bench-Id: 12346\r\n\r\n"
)

// TestRelayIsDeterministic: a shard reply reaches the client byte for
// byte, header lines in the shard's order, every time; only the
// Connection line is the balancer's, and it follows the client's choice.
// (The map-based relay emitted the headers in a different order from one
// request to the next.) With the shard gone, the 502 is what it always was.
func TestRelayIsDeterministic(t *testing.T) {
	shard := &cannedShard{reply: []byte(cannedReply)}
	b, addr := serveBalancer(t, []variant.Instance{shard}, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if !strings.Contains(cannedReply, "\r\nContent-Length: 5\r\n") {
		t.Fatal("the canned reply must spell Content-Length the way clients scan for it")
	}
	got := make([]byte, len(cannedReply))
	for i := 0; i < 100; i++ {
		exchange(t, nc, []byte(keepAliveGET), got)
		if string(got) != cannedReply {
			t.Fatalf("relay %d:\n got %q\nwant %q", i, got, cannedReply)
		}
	}

	// Connection: close from the client: the line says so, in place, and
	// the balancer closes after the reply.
	closing := strings.Replace(cannedReply, "Connection: keep-alive", "Connection: close", 1)
	got = make([]byte, len(closing))
	exchange(t, nc, []byte("GET /x HTTP/1.1\r\nConnection: close\r\n\r\n"), got)
	if string(got) != closing {
		t.Fatalf("closing relay:\n got %q\nwant %q", got, closing)
	}
	if n, err := nc.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("connection still open after Connection: close (n=%d, err=%v)", n, err)
	}

	// No shard, no reply: the fixed 502, then close.
	if err := b.SetShardDown(0, true); err != nil {
		t.Fatal(err)
	}
	nc2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	_ = nc2.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(nc2, keepAliveGET); err != nil {
		t.Fatal(err)
	}
	all, err := io.ReadAll(nc2)
	if want := "HTTP/1.1 502 Bad Gateway\r\nConnection: close\r\nContent-Length: 12\r\n\r\nbad gateway\n"; err != nil || string(all) != want {
		t.Fatalf("502 path: got %q (err %v), want %q", all, err, want)
	}
}

// realShards builds n modified-variant instances over one small app: an
// echo page, a 6 KiB page and an 8 KiB image.
func realShards(t *testing.T, n int) []variant.Instance {
	t.Helper()
	v, ok := variant.Lookup(variant.Modified)
	if !ok {
		t.Fatal("modified variant not registered")
	}
	echo := func(r *server.Request) (*server.Result, error) {
		return &server.Result{Body: "id=" + r.Header.Get("X-Bench-Id") + " agent=" + r.Header.Get("User-Agent") +
			" host=" + r.Header.Get("Host") + " q=" + r.Query["q"]}, nil
	}
	insts := make([]variant.Instance, n)
	for i := range insts {
		app := webtest.NewApp().
			AddPage("/echo", echo).AddPage("/fan_echo", echo).
			AddPage("/page6k", func(*server.Request) (*server.Result, error) {
				return &server.Result{Body: strings.Repeat("0123456789abcdef", 384)}, nil
			}).
			AddStatic("/img/image_1.gif", bytes.Repeat([]byte("GIF89a.."), 1024), "image/gif")
		inst, err := v.Build(variant.Env{App: app, DB: sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})})
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = inst
	}
	return insts
}

// TestRelayForwardsClientHeaders: a shard handler sees the client's
// end-to-end headers — X-Bench-Id, which the benchmark's tracing links
// spans by — on a routed and on a fanned-out request, GET and form POST
// alike; the hop-by-hop ones stay the balancer's.
func TestRelayForwardsClientHeaders(t *testing.T) {
	_, addr := serveBalancer(t, realShards(t, 2), nil)
	for _, tc := range []struct{ name, req, want string }{
		{"routed", "GET /echo?q=a+b HTTP/1.1\r\nHost: client\r\nUser-Agent: relay-test\r\nX-Bench-Id: 77\r\nConnection: close\r\n\r\n",
			"id=77 agent=relay-test host=shard q=a b"},
		{"fanned out", "GET /fan_echo?q=1 HTTP/1.1\r\nHost: client\r\nx-bench-id: 78\r\nConnection: close\r\n\r\n",
			"id=78 agent= host=shard q=1"},
		{"form POST", "POST /echo HTTP/1.1\r\nX-Bench-Id: 79\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 3\r\nConnection: close\r\n\r\nq=f",
			"id=79 agent= host=shard q=f"},
	} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.WriteString(nc, tc.req); err != nil {
			t.Fatal(err)
		}
		all, err := io.ReadAll(nc)
		nc.Close()
		if err != nil || !strings.HasPrefix(string(all), "HTTP/1.1 200 OK\r\n") || !strings.HasSuffix(string(all), "\r\n\r\n"+tc.want) {
			t.Errorf("%s: reply %q (err %v), want a 200 with body %q", tc.name, all, err, tc.want)
		}
	}
}

// writeSizes is a listener whose connections record every Write's size.
type writeSizes struct {
	net.Listener
	mu    sync.Mutex
	sizes []int
}

type sizedConn struct {
	net.Conn
	l *writeSizes
}

func (l *writeSizes) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &sizedConn{nc, l}, nil
}

func (c *sizedConn) Write(p []byte) (int, error) {
	c.l.mu.Lock()
	c.l.sizes = append(c.l.sizes, len(p))
	c.l.mu.Unlock()
	return c.Conn.Write(p)
}

// TestRelayReplyIsOneWrite: whatever the balancer relays — an 8 KiB image
// and a 6 KiB page included — reaches the client socket in one Write.
func TestRelayReplyIsOneWrite(t *testing.T) {
	var ws *writeSizes
	_, addr := serveBalancer(t, realShards(t, 2), func(l net.Listener) net.Listener {
		ws = &writeSizes{Listener: l}
		return ws
	})
	for _, path := range []string{"/echo", "/img/image_1.gif", "/page6k", "/fan_echo", "/missing.gif", "/nosuch"} {
		resp, err := webtest.Get(addr, path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		ws.mu.Lock()
		sizes := ws.sizes
		ws.sizes = nil
		ws.mu.Unlock()
		if len(sizes) != 1 || sizes[0] <= len(resp.Body) {
			t.Errorf("%s: a reply with a %d-byte body left in writes of %v bytes, want one", path, len(resp.Body), sizes)
		}
	}
}

// TestRelayAllocCeiling: a whole relay round trip — parse the client's
// request, route, forward, read the shard's reply, write it back — costs
// the balancer the two strings of the request head and little else. (It
// was 37 allocations a request.)
func TestRelayAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the relay's buffers are pooled")
	}
	shard := &cannedShard{reply: []byte(cannedReply)}
	_, addr := serveBalancer(t, []variant.Instance{shard}, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	req, got := []byte(keepAliveGET), make([]byte, len(cannedReply))
	exchange(t, nc, req, got) // dial the backend, fill the pools
	if n := testing.AllocsPerRun(500, func() { exchange(t, nc, req, got) }); n > 6 {
		t.Errorf("relay round trip: %v allocations, ceiling 6", n)
	}
}

// BenchmarkWire/relay is the hop's row of the wire ledger (the parse and
// write rows are httpwire.BenchmarkWire): one request through balancer
// and a canned shard over loopback, allocations the balancer's alone.
func BenchmarkWire(b *testing.B) {
	b.Run("relay", func(b *testing.B) {
		shard := &cannedShard{reply: []byte(cannedReply)}
		bal, err := cluster.New(cluster.Options{Shards: 1}, []variant.Instance{shard}, func(string, map[string]string) cluster.Decision {
			return cluster.Decision{}
		})
		if err != nil {
			b.Fatal(err)
		}
		l, addr, err := webtest.Listen()
		if err != nil {
			b.Fatal(err)
		}
		go func() { _ = bal.Serve(l) }()
		defer bal.Stop()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		defer nc.Close()
		req, got := []byte(keepAliveGET), make([]byte, len(cannedReply))
		exchange(b, nc, req, got)
		b.ReportAllocs()
		for b.Loop() {
			exchange(b, nc, req, got)
		}
	})
}
