package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"strconv"
	"strings"
	"testing"
)

// The reference parser: the map-and-Builder implementation this package
// shipped before requests were parsed in place, kept word for word as the
// oracle FuzzReadRequest compares the production parser with.

type refRequest struct {
	Line   RequestLine
	Header map[string]string
	Query  map[string]string
	Body   []byte
}

func refReadLine(br *bufio.Reader, limit int, tooLong error) (string, error) {
	var sb strings.Builder
	for {
		chunk, err := br.ReadSlice('\n')
		sb.Write(chunk)
		if sb.Len() > limit {
			return "", tooLong
		}
		if err == nil {
			break
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		return "", err
	}
	line := sb.String()
	line = strings.TrimSuffix(line, "\n")
	line = strings.TrimSuffix(line, "\r")
	return line, nil
}

func refReadHeaders(br *bufio.Reader) (map[string]string, error) {
	h := make(map[string]string, 8)
	total := 0
	for {
		line, err := refReadLine(br, MaxHeaderBytes, ErrHeaderTooBig)
		if err != nil {
			return nil, err
		}
		if line == "" {
			return h, nil
		}
		total += len(line)
		if total > MaxHeaderBytes {
			return nil, ErrHeaderTooBig
		}
		colon := strings.IndexByte(line, ':')
		if colon <= 0 {
			return nil, fmt.Errorf("%w: %q", ErrMalformedHdr, line)
		}
		key := line[:colon]
		if strings.ContainsAny(key, " \t") {
			return nil, fmt.Errorf("%w: whitespace in field name %q", ErrMalformedHdr, key)
		}
		h[CanonicalKey(key)] = strings.TrimSpace(line[colon+1:])
	}
}

func refReadRequest(br *bufio.Reader) (*refRequest, error) {
	first, err := refReadLine(br, MaxRequestLineBytes, ErrLineTooLong)
	if err != nil {
		return nil, err
	}
	line, err := ParseRequestLine(first)
	if err != nil {
		return nil, err
	}
	hdr, err := refReadHeaders(br)
	if err != nil {
		return nil, err
	}
	req := &refRequest{Line: line, Header: hdr}
	req.Query, err = ParseQuery(line.RawQuery)
	if err != nil {
		return nil, err
	}
	if cl := hdr["Content-Length"]; cl != "" {
		n, err := strconv.Atoi(cl)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%w: Content-Length %q", ErrMalformedHdr, cl)
		}
		if n > MaxBodyBytes {
			return nil, ErrBodyTooBig
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, fmt.Errorf("httpwire: reading body: %w", err)
		}
		req.Body = body
		if strings.HasPrefix(hdr["Content-Type"], "application/x-www-form-urlencoded") {
			form, err := ParseQuery(string(body))
			if err != nil {
				return nil, err
			}
			for k, v := range form {
				req.Query[k] = v
			}
		}
	}
	return req, nil
}

// sentinels are the errors a caller can tell apart.
var sentinels = []error{
	ErrLineTooLong, ErrHeaderTooBig, ErrBodyTooBig, ErrMalformedLine,
	ErrMalformedHdr, ErrBadProto, ErrBadEscape, io.EOF, io.ErrUnexpectedEOF,
}

func sentinelOf(err error) error {
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

// requestStrings clones every string a parsed request handed out, paired
// with the original, so a later check can tell whether one changed.
func requestStrings(r *Request) (live, snapshot []string) {
	live = []string{r.Line.Method, r.Line.Target, r.Line.Proto, r.Line.Path, r.Line.RawQuery}
	for _, f := range r.Header {
		live = append(live, f.Name, f.Value)
	}
	for k, v := range r.Query {
		live = append(live, k, v)
	}
	for _, s := range live {
		snapshot = append(snapshot, strings.Clone(s))
	}
	return live, snapshot
}

// checkAgainstReference parses data as a stream of pipelined requests with
// both parsers, through readers of the given buffer size, and fails on the
// first difference: error class, Line, Query, Body or any header value.
// The production side parses the first request fresh and the rest into one
// reused Request, the way the balancer does.
func checkAgainstReference(t *testing.T, data []byte, size int) {
	t.Helper()
	refBR := bufio.NewReaderSize(bytes.NewReader(data), size)
	br := bufio.NewReaderSize(bytes.NewReader(data), size)
	var reused Request
	var live, snapshot []string
	for n := 0; n < 64; n++ {
		want, wantErr := refReadRequest(refBR)
		got := &reused
		var err error
		if n == 0 {
			got, err = ReadRequest(br)
		} else {
			err = reused.Parse(br)
		}
		if (err == nil) != (wantErr == nil) || sentinelOf(err) != sentinelOf(wantErr) {
			t.Fatalf("request %d: err = %v, reference err = %v", n, err, wantErr)
		}
		if err != nil {
			break
		}
		if got.Line != want.Line {
			t.Fatalf("request %d: Line = %+v, reference %+v", n, got.Line, want.Line)
		}
		if !maps.Equal(got.Query, want.Query) {
			t.Fatalf("request %d: Query = %v, reference %v", n, got.Query, want.Query)
		}
		if !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("request %d: Body = %q, reference %q", n, got.Body, want.Body)
		}
		for k, v := range want.Header {
			if g := got.Header.Get(k); g != v {
				t.Fatalf("request %d: Header.Get(%q) = %q, reference %q", n, k, g, v)
			}
		}
		for _, f := range got.Header {
			if _, ok := want.Header[f.Name]; !ok {
				t.Fatalf("request %d: header field %q the reference does not have", n, f.Name)
			}
		}
		if n == 0 {
			live, snapshot = requestStrings(got)
		}
	}
	// Reuse the reader: whatever aliased its buffer changes now.
	br.Reset(strings.NewReader(strings.Repeat("#", 2*br.Size())))
	_, _ = br.Peek(br.Size())
	for i := range live {
		if live[i] != snapshot[i] {
			t.Fatalf("string %q changed to %q once the reader was reused", snapshot[i], live[i])
		}
	}
}

// wireSeeds are the request shapes of request_test.go, the benchmark's
// generated form, and the hostile ones the limits exist for.
var wireSeeds = []string{
	"GET /img/flowers.gif HTTP/1.1\r\n\r\n",
	"GET /homepage?userid=5&popups=no HTTP/1.1\r\nUser-Agent: Mozilla/1.7\r\nAccept: text/html\r\n\r\n",
	"POST /buy HTTP/1.0\r\n\r\n",
	"GET /home HTTP/1.1\r\nHost: x\r\n\r\n",
	"GET / HTTP/1.1\r\nUser-Agent: Mozilla/1.7\r\naccept: text/html\r\nX-Multi:  padded value \r\n\r\n",
	"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
	"GET / HTTP/1.1\r\n: empty-name\r\n\r\n",
	"GET / HTTP/1.1\r\nBad Name: v\r\n\r\n",
	"POST /buy HTTP/1.1\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 19\r\n\r\nfield=value&other=2",
	"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
	"POST /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
	"POST /x HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n",
	"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
	"GET /a HTTP/1.1\nHost: h\n\n",
	"GET /a HTTP/1.1\r\nHost: one\r\nhost: two\r\nConnection: close\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
	"GET /a HTTP/1.1\r\nX-A: v\r\r\n\n",
	"GET / HTTP/2.0\r\n\r\n", "get / HTTP/1.1\r\n\r\n", "GET  HTTP/1.1\r\n\r\n", "GET\r\n", "", "GET / HTTP/1.1\r\nHost: cut",
	"GET /search?q=%zz HTTP/1.1\r\n\r\n", "GET /search?q=%4 HTTP/1.1\r\n\r\n", "GET /search?a+b=%41%2B&&c HTTP/1.1\r\n\r\n",
	"GET /product_detail?i_id=7 HTTP/1.1\r\nHost: tpcw\r\nUser-Agent: stagedbench\r\nConnection: keep-alive\r\nX-Bench-Id: 12345\r\n\r\n" +
		"GET /img/thumb_7.gif HTTP/1.1\r\nHost: tpcw\r\nUser-Agent: stagedbench\r\nConnection: keep-alive\r\nX-Bench-Id: 12346\r\n\r\n",
	"GET /" + strings.Repeat("a", 9<<10) + " HTTP/1.1\r\n\r\n",
	"GET /" + strings.Repeat("a", 5000) + "?k=" + strings.Repeat("v", 1000) + " HTTP/1.1\r\nHost: h\r\n\r\n",
	"GET / HTTP/1.1\r\n" + strings.Repeat("X-Fill: "+strings.Repeat("f", 1000)+"\r\n", 65) + "\r\n",
	"GET / HTTP/1.1\r\nX-Long: " + strings.Repeat("l", 5000) + "\r\nHost: h\r\n\r\nGET /next HTTP/1.1\r\n\r\n",
	"GET / HTTP/1.1\r\n" + strings.Repeat("K: v\r\n", 40) + "\r\n",
}

// FuzzReadRequest: the production parser must agree with the reference on
// every input, through a reader that holds a line whole and through one
// that does not, and its strings must survive the reader's reuse.
func FuzzReadRequest(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data, 4096)
		checkAgainstReference(t, data, 16)
	})
}
