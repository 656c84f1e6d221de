package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"stagedweb/internal/server"
	"stagedweb/internal/webtest"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire_golden.txt from this checkout's replies")

// wireApp serves the reply shapes the wire path has: a deferred page, a
// pre-rendered one, a 6 KiB page, small and 8 KiB statics, a redirect.
func wireApp() *webtest.App {
	app := stagedApp()
	app.AddTemplate("big.html", "<html><body>{{ filler }}</body></html>")
	app.AddStatic("/img/image_1.gif", bytes.Repeat([]byte("GIF89a.."), 1024), "image/gif")
	app.AddPage("/page6k", func(r *server.Request) (*server.Result, error) {
		return &server.Result{Template: "big.html", Data: map[string]any{"filler": strings.Repeat("0123456789abcdef", 384)}}, nil
	})
	app.AddPage("/go", func(r *server.Request) (*server.Result, error) {
		return &server.Result{Redirect: "/hello"}, nil
	})
	app.AddPage("/echo", func(r *server.Request) (*server.Result, error) {
		return &server.Result{Body: "name=" + r.Query["name"] + " id=" + r.Header.Get("X-Bench-Id"), ContentType: "text/plain"}, nil
	})
	return app
}

// wireScript is the fixed request script of TestWireRepliesMatchParent.
// A reply that says Connection: close ends its connection; the next
// request dials again.
var wireScript = []string{
	"GET /hello HTTP/1.1\r\nHost: t\r\n\r\n",
	"GET /legacy HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
	"GET /style.css HTTP/1.1\r\nHost: t\r\nUser-Agent: wire\r\nAccept: */*\r\nConnection: keep-alive\r\n\r\n",
	"GET /img/image_1.gif HTTP/1.1\r\nHost: t\r\n\r\n",
	"GET /page6k HTTP/1.1\r\nHost: t\r\n\r\n",
	"GET /echo?name=a+b%21 HTTP/1.1\r\nHost: t\r\nX-Bench-Id: 42\r\n\r\n",
	"POST /echo HTTP/1.1\r\nHost: t\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 8\r\n\r\nname=frm",
	"GET /go HTTP/1.1\r\nHost: t\r\n\r\n",
	"GET /nosuch HTTP/1.1\r\nHost: t\r\n\r\n",
	"GET /missing.png HTTP/1.1\r\nHost: t\r\n\r\n",
	"GET /boom HTTP/1.1\r\nHost: t\r\n\r\n",
	"GET /hello HTTP/1.0\r\nHost: t\r\n\r\n",
	"GET /style.css HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
	"GET /hello HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
}

// readRawResponse reads one Content-Length-framed response as bytes.
func readRawResponse(t *testing.T, nc net.Conn) []byte {
	t.Helper()
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var got []byte
	chunk := make([]byte, 4096)
	for {
		if i := bytes.Index(got, []byte("\r\n\r\n")); i >= 0 {
			j := bytes.Index(got[:i+2], []byte("Content-Length: "))
			if j < 0 {
				t.Fatalf("reply without Content-Length: %q", got[:i])
			}
			rest := got[j+len("Content-Length: "):]
			n, err := strconv.Atoi(string(rest[:bytes.IndexByte(rest, '\r')]))
			if err != nil {
				t.Fatal(err)
			}
			if total := i + 4 + n; len(got) >= total {
				if len(got) > total {
					t.Fatalf("%d bytes past the reply", len(got)-total)
				}
				return got
			}
		}
		n, err := nc.Read(chunk)
		got = append(got, chunk[:n]...)
		if err != nil {
			t.Fatalf("reading reply after %q: %v", got, err)
		}
	}
}

// TestWireRepliesMatchParent replays wireScript and compares every reply,
// head included, with the bytes the parent of the one-write change sent.
func TestWireRepliesMatchParent(t *testing.T) {
	env := startStaged(t, wireApp(), nil)
	var nc net.Conn
	var out bytes.Buffer
	for i, req := range wireScript {
		if nc == nil {
			var err error
			if nc, err = net.Dial("tcp", env.addr); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := io.WriteString(nc, req); err != nil {
			t.Fatal(err)
		}
		reply := readRawResponse(t, nc)
		fmt.Fprintf(&out, "#%d %q\n%q\n", i, req, reply)
		if bytes.Contains(reply[:bytes.Index(reply, []byte("\r\n\r\n"))], []byte("Connection: close")) {
			_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := nc.Read(make([]byte, 1)); n != 0 || err != io.EOF {
				t.Fatalf("request %d: connection open after Connection: close (n=%d err=%v)", i, n, err)
			}
			nc.Close()
			nc = nil
		}
	}
	if nc != nil {
		nc.Close()
	}
	const golden = "testdata/wire_golden.txt"
	if *updateWire {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		gotLines, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gotLines {
			if i >= len(wantLines) || gotLines[i] != wantLines[i] {
				t.Fatalf("reply differs from the parent's at golden line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[min(i, len(wantLines)-1)])
			}
		}
		t.Fatalf("got %d golden lines, want %d", len(gotLines), len(wantLines))
	}
}

// writeCounter is a listener whose connections record the size of every
// Write that reaches the socket.
type writeCounter struct {
	net.Listener
	mu     sync.Mutex
	writes []int
}

func (l *writeCounter) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: nc, l: l}, nil
}

type countedConn struct {
	net.Conn
	l *writeCounter
}

func (c *countedConn) Write(p []byte) (int, error) {
	c.l.mu.Lock()
	c.l.writes = append(c.l.writes, len(p))
	c.l.mu.Unlock()
	return c.Conn.Write(p)
}

// take returns the write sizes recorded since the last call.
func (l *writeCounter) take() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	w := l.writes
	l.writes = nil
	return w
}

// TestStagedReplyIsOneWrite: every reply of the script — the 8 KiB static
// and the 6 KiB page are the ones a 4 KiB buffered writer split — reaches
// the socket whole, in a single Write call.
func TestStagedReplyIsOneWrite(t *testing.T) {
	var wc *writeCounter
	env := startStagedOn(t, wireApp(), nil, func(l net.Listener) net.Listener {
		wc = &writeCounter{Listener: l}
		return wc
	})
	for i, req := range wireScript {
		nc, err := net.Dial("tcp", env.addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(nc, req); err != nil {
			t.Fatal(err)
		}
		reply := readRawResponse(t, nc)
		nc.Close()
		if w := wc.take(); len(w) != 1 || w[0] != len(reply) {
			t.Errorf("request %d (%q): a %d-byte reply left in writes of %v bytes, want one", i, strings.SplitN(req, "\r\n", 2)[0], len(reply), w)
		}
	}
}
