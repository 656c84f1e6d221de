package httpwire

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
)

// The benchmark's generated request shapes (benchmark/script.go reqHead).
const (
	staticGET  = "GET /img/thumb_7.gif HTTP/1.1\r\nHost: tpcw\r\nUser-Agent: stagedbench\r\nConnection: keep-alive\r\nX-Bench-Id: 12346\r\n\r\n"
	dynamicGET = "GET /product_detail?i_id=7&sc_id=31 HTTP/1.1\r\nHost: tpcw\r\nUser-Agent: stagedbench\r\nConnection: keep-alive\r\nX-Bench-Id: 12345\r\n\r\n"
)

// replayer feeds one request to a parser over and over without allocating.
type replayer struct {
	data []byte
	rd   bytes.Reader
	br   *bufio.Reader
}

func newReplayer(s string) *replayer {
	r := &replayer{data: []byte(s)}
	r.br = bufio.NewReader(&r.rd)
	return r
}

func (r *replayer) next() *bufio.Reader {
	r.rd.Reset(r.data)
	r.br.Reset(&r.rd)
	return r.br
}

// TestWireAllocCeilings pins what a request costs the wire path: a static
// GET is two strings (its line, its header block) whether it is parsed in
// two phases into a connection's field storage, as the staged server does,
// or into a reused Request, as the balancer does; a dynamic GET adds the
// Request and the query map; writing a reply allocates nothing.
func TestWireAllocCeilings(t *testing.T) {
	static, dynamic := newReplayer(staticGET), newReplayer(dynamicGET)
	var fields [8]Field
	var reused Request
	body := make([]byte, HeadRoom+1024)
	resp := Response{Status: StatusOK, ContentType: "image/gif", Body: body[HeadRoom:], KeepAlive: true}
	for _, tc := range []struct {
		name    string
		ceiling float64
		pooled  bool // meaningless under -race, where sync.Pool drops buffers
		f       func()
	}{
		{"static GET, two-phase", 2, false, func() {
			br := static.next()
			line, err := ReadRequestLine(br)
			if err != nil || !line.IsStatic() {
				t.Fatal(line, err)
			}
			hdr, err := AppendHeaders(fields[:0], br)
			if err != nil || hdr.Get("Connection") != "keep-alive" {
				t.Fatal(hdr, err)
			}
		}},
		{"static GET, reused Request", 2, false, func() {
			if err := reused.Parse(static.next()); err != nil || reused.Query != nil {
				t.Fatal(reused.Query, err)
			}
		}},
		{"dynamic GET", 5, false, func() {
			req, err := ReadRequest(dynamic.next())
			if err != nil || req.Query["i_id"] != "7" || req.Header.Get("X-Bench-Id") != "12345" {
				t.Fatal(req, err)
			}
		}},
		{"Response.Write", 0, true, func() {
			if err := resp.Write(io.Discard); err != nil {
				t.Fatal(err)
			}
		}},
		{"Response.WriteInPlace", 0, true, func() {
			if err := resp.WriteInPlace(io.Discard, body); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if raceEnabled && tc.pooled {
			continue
		}
		if n := testing.AllocsPerRun(200, tc.f); n > tc.ceiling {
			t.Errorf("%s: %v allocations, ceiling %v", tc.name, n, tc.ceiling)
		}
	}
}

// writeLog records the size of every Write it receives.
type writeLog struct{ sizes []int }

func (w *writeLog) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return len(p), nil
}

// TestResponseLeavesInOneWrite: head and body reach the writer in a single
// Write call up to MaxOneWrite, by either path, with identical bytes.
func TestResponseLeavesInOneWrite(t *testing.T) {
	for _, size := range []int{0, 19, 4096, 8192, 64 << 10} {
		buf := append(make([]byte, HeadRoom), bytes.Repeat([]byte{'x'}, size)...)
		resp := Response{Status: StatusOK, Body: buf[HeadRoom:], KeepAlive: true}
		var copied, inPlace bytes.Buffer
		var log writeLog
		if err := resp.Write(io.MultiWriter(&log, &copied)); err != nil {
			t.Fatal(err)
		}
		if err := resp.WriteInPlace(io.MultiWriter(&log, &inPlace), buf); err != nil {
			t.Fatal(err)
		}
		if len(log.sizes) != 2 || log.sizes[0] != copied.Len() || log.sizes[1] != copied.Len() {
			t.Errorf("%d-byte body: Write calls of %v bytes, want two of %d", size, log.sizes, copied.Len())
		}
		if !bytes.Equal(copied.Bytes(), inPlace.Bytes()) {
			t.Errorf("%d-byte body: Write and WriteInPlace differ", size)
		}
	}
	// Extra values too long for the headroom: still whole, by the copy.
	long := Response{Status: StatusFound, Extra: Header{{"Location", "/" + strings.Repeat("p", 2*HeadRoom)}}}
	var log writeLog
	if err := long.WriteInPlace(&log, make([]byte, HeadRoom)); err != nil || len(log.sizes) != 1 {
		t.Errorf("long head: writes %v, err %v", log.sizes, err)
	}
}

// TestExtraHeadersKeepTheirOrder: Extra is a list, written as given.
func TestExtraHeadersKeepTheirOrder(t *testing.T) {
	resp := Response{Status: StatusFound, Extra: Header{{"Location", "/home"}, {"X-B", "2"}, {"X-A", "1"}}}
	want := "HTTP/1.1 302 Found\r\nServer: stagedweb\r\nContent-Type: text/html; charset=utf-8\r\nContent-Length: 0\r\n" +
		"Connection: close\r\nLocation: /home\r\nX-B: 2\r\nX-A: 1\r\n\r\n"
	for i := 0; i < 20; i++ {
		if got := string(resp.AppendHead(nil)); got != want {
			t.Fatalf("head = %q, want %q", got, want)
		}
	}
}

func TestReadResponseRewritesOnlyConnection(t *testing.T) {
	const sent = "HTTP/1.1 200 OK\r\nServer: stagedweb\r\nX-B: 2\r\nContent-Length: 5\r\nconnection:  Close \r\nX-A: 1\r\n\r\nhello"
	raw, err := ReadResponse(reader(sent+"next"), nil, "")
	if err != nil || string(raw.Raw) != sent || raw.Status != 200 || raw.KeepAlive || string(raw.Body()) != "hello" {
		t.Fatalf("as sent: %+v, %v", raw, err)
	}
	if hdr, err := raw.Header(); err != nil || hdr.Get("X-A") != "1" || hdr.Get("Connection") != "Close" {
		t.Fatalf("Header() = %v, %v", hdr, err)
	}
	raw, err = ReadResponse(reader(sent), make([]byte, 0, 16), "keep-alive")
	want := strings.Replace(sent, "connection:  Close ", "Connection: keep-alive", 1)
	if err != nil || string(raw.Raw) != want || raw.KeepAlive {
		t.Fatalf("rewritten: %q, %v", raw.Raw, err)
	}
	// No Connection line: one is added, at the end of the head.
	raw, err = ReadResponse(reader("HTTP/1.0 404 Not Found\nContent-Length: 0\n\n"), nil, "close")
	if want := "HTTP/1.0 404 Not Found\nContent-Length: 0\nConnection: close\r\n\r\n"; err != nil || string(raw.Raw) != want || !raw.KeepAlive || raw.Status != 404 {
		t.Fatalf("added: %q, %v", raw.Raw, err)
	}
}

// BenchmarkWire is the wire path's per-request ledger: ns and allocations
// to parse a request and to write a reply of the benchmark's sizes. The
// relay's own row is cluster.BenchmarkWire/relay.
func BenchmarkWire(b *testing.B) {
	parse := func(s string) func(*testing.B) {
		return func(b *testing.B) {
			r := newReplayer(s)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ReadRequest(r.next()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	write := func(size int) func(*testing.B) {
		return func(b *testing.B) {
			resp := Response{Status: StatusOK, ContentType: "image/gif", Body: make([]byte, size), KeepAlive: true}
			b.ReportAllocs()
			for b.Loop() {
				if err := resp.Write(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("parse-static", parse(staticGET))
	b.Run("parse-dynamic", parse(dynamicGET))
	b.Run("write-1k", write(1<<10))
	b.Run("write-8k", write(8<<10))
}
