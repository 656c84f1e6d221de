package httpwire

import (
	"bufio"
	"errors"
	"strings"
	"testing"
)

func reader(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

func TestParseRequestLine(t *testing.T) {
	tests := []struct {
		name string
		line string
		want RequestLine
	}{
		{
			"static gif from the paper",
			"GET /img/flowers.gif HTTP/1.1",
			RequestLine{Method: "GET", Target: "/img/flowers.gif", Proto: "HTTP/1.1", Path: "/img/flowers.gif"},
		},
		{
			"dynamic with query from the paper",
			"GET /homepage?userid=5&popups=no HTTP/1.1",
			RequestLine{Method: "GET", Target: "/homepage?userid=5&popups=no", Proto: "HTTP/1.1",
				Path: "/homepage", RawQuery: "userid=5&popups=no"},
		},
		{
			"http 1.0",
			"POST /buy HTTP/1.0",
			RequestLine{Method: "POST", Target: "/buy", Proto: "HTTP/1.0", Path: "/buy"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ParseRequestLine(tt.line)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("got %+v, want %+v", got, tt.want)
			}
		})
	}
}

func TestParseRequestLineErrors(t *testing.T) {
	for _, line := range []string{
		"",
		"GET",
		"GET /",
		"GET / HTTP/2.0",
		"get / HTTP/1.1",
		"GET  HTTP/1.1",
	} {
		if _, err := ParseRequestLine(line); err == nil {
			t.Errorf("ParseRequestLine(%q) succeeded, want error", line)
		}
	}
}

func TestIsStatic(t *testing.T) {
	tests := []struct {
		path string
		want bool
	}{
		{"/img/flowers.gif", true},
		{"/style.css", true},
		{"/homepage", false},
		{"/", false},
		{"/search", false},
		{"/a.b/c", false},       // extension in a directory, not the leaf
		{"/file.", false},       // trailing dot is not an extension
		{"/.hidden", false},     // leading dot is not an extension
		{"/img/it_3.jpg", true}, // numbered asset
	}
	for _, tt := range tests {
		rl := RequestLine{Path: tt.path}
		if got := rl.IsStatic(); got != tt.want {
			t.Errorf("IsStatic(%q) = %v, want %v", tt.path, got, tt.want)
		}
	}
}

func TestReadRequestLineOnlyConsumesFirstLine(t *testing.T) {
	br := reader("GET /home HTTP/1.1\r\nHost: x\r\n\r\n")
	rl, err := ReadRequestLine(br)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Path != "/home" {
		t.Fatalf("Path = %q", rl.Path)
	}
	// Phase two must still see the headers.
	h, err := ReadHeaders(br)
	if err != nil {
		t.Fatal(err)
	}
	if h.Get("Host") != "x" {
		t.Fatalf("Host = %q, want x", h.Get("Host"))
	}
}

func TestReadHeaders(t *testing.T) {
	br := reader("User-Agent: Mozilla/1.7\r\naccept: text/html\r\nX-Multi:  padded value \r\n\r\n")
	h, err := ReadHeaders(br)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Get("user-agent"); got != "Mozilla/1.7" {
		t.Fatalf("User-Agent = %q", got)
	}
	if got := h.Get("Accept"); got != "text/html" {
		t.Fatalf("Accept = %q (case-insensitive get failed)", got)
	}
	if got := h.Get("X-Multi"); got != "padded value" {
		t.Fatalf("X-Multi = %q (whitespace not trimmed)", got)
	}
}

func TestReadHeadersMalformed(t *testing.T) {
	for _, raw := range []string{
		"no-colon-here\r\n\r\n",
		": empty-name\r\n\r\n",
		"Bad Name: v\r\n\r\n",
	} {
		if _, err := ReadHeaders(reader(raw)); err == nil {
			t.Errorf("ReadHeaders(%q) succeeded, want error", raw)
		}
	}
}

func TestReadRequestFull(t *testing.T) {
	raw := "GET /homepage?userid=5&popups=no HTTP/1.1\r\n" +
		"User-Agent: Mozilla/1.7\r\nAccept: text/html\r\n\r\n"
	req, err := ReadRequest(reader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if req.Query["userid"] != "5" || req.Query["popups"] != "no" {
		t.Fatalf("Query = %v", req.Query)
	}
	if !req.KeepAlive() {
		t.Fatal("HTTP/1.1 without Connection: close must keep alive")
	}
}

func TestReadRequestPostForm(t *testing.T) {
	body := "field=value&other=2"
	raw := "POST /buy HTTP/1.1\r\nContent-Type: application/x-www-form-urlencoded\r\n" +
		"Content-Length: " + itoa(len(body)) + "\r\n\r\n" + body
	req, err := ReadRequest(reader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if req.Query["field"] != "value" || req.Query["other"] != "2" {
		t.Fatalf("form not merged into Query: %v", req.Query)
	}
	if string(req.Body) != body {
		t.Fatalf("Body = %q", req.Body)
	}
}

func TestReadRequestBadContentLength(t *testing.T) {
	raw := "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"
	if _, err := ReadRequest(reader(raw)); err == nil {
		t.Fatal("bad Content-Length accepted")
	}
	raw = "POST /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
	if _, err := ReadRequest(reader(raw)); err == nil {
		t.Fatal("negative Content-Length accepted")
	}
}

func TestReadRequestBodyTooBig(t *testing.T) {
	raw := "POST /x HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n"
	if _, err := ReadRequest(reader(raw)); !errors.Is(err, ErrBodyTooBig) {
		t.Fatalf("err = %v, want ErrBodyTooBig", err)
	}
}

func TestKeepAliveSemantics(t *testing.T) {
	tests := []struct {
		proto, connHdr string
		want           bool
	}{
		{"HTTP/1.1", "", true},
		{"HTTP/1.1", "close", false},
		{"HTTP/1.1", "keep-alive", true},
		{"HTTP/1.0", "", false},
		{"HTTP/1.0", "keep-alive", true},
		{"HTTP/1.0", "close", false},
	}
	for _, tt := range tests {
		req := &Request{Line: RequestLine{Proto: tt.proto}, Header: Header{}}
		if tt.connHdr != "" {
			req.Header = Header{{"Connection", tt.connHdr}}
		}
		if got := req.KeepAlive(); got != tt.want {
			t.Errorf("KeepAlive(%s, %q) = %v, want %v", tt.proto, tt.connHdr, got, tt.want)
		}
	}
}

func TestRequestLineTooLong(t *testing.T) {
	raw := "GET /" + strings.Repeat("a", MaxRequestLineBytes) + " HTTP/1.1\r\n\r\n"
	if _, err := ReadRequestLine(reader(raw)); !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("err = %v, want ErrLineTooLong", err)
	}
}

func TestCanonicalKey(t *testing.T) {
	tests := map[string]string{
		"content-length": "Content-Length",
		"CONTENT-TYPE":   "Content-Type",
		"user-agent":     "User-Agent",
		"x":              "X",
		"aCCePt":         "Accept",
		"Content-length": "Content-Length",
		"X-Bench-Id":     "X-Bench-Id",
		"X--a":           "X--A",
		"":               "",
	}
	for in, want := range tests {
		if got := CanonicalKey(in); got != want {
			t.Errorf("CanonicalKey(%q) = %q, want %q", in, got, want)
		}
	}
}

// A key already canonical — every header line a well-behaved client
// sends, and every Get this package makes — must come back without a
// copy: it was three allocations on every request.
func TestCanonicalKeyCanonicalInputDoesNotAllocate(t *testing.T) {
	for _, key := range []string{"Connection", "Content-Length", "X-Bench-Id", "Host"} {
		if n := testing.AllocsPerRun(100, func() { _ = CanonicalKey(key) }); n != 0 {
			t.Errorf("CanonicalKey(%q) allocates %v times", key, n)
		}
	}
	h := Header{{"Content-Length", "12"}}
	if n := testing.AllocsPerRun(100, func() { _ = h.Get("Content-Length") }); n != 0 {
		t.Errorf("Header.Get allocates %v times", n)
	}
	if h.Get("content-LENGTH") != "12" {
		t.Error("mixed-case Get lost the value")
	}
}

func TestLFOnlyLineEndingsAccepted(t *testing.T) {
	req, err := ReadRequest(reader("GET /a HTTP/1.1\nHost: h\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if req.Header.Get("Host") != "h" {
		t.Fatalf("Host = %q", req.Header.Get("Host"))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
