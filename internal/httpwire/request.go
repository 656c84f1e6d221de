// Package httpwire implements the HTTP/1.1 wire protocol used by both
// server variants and by the cluster balancer's relay.
//
// Parsing is deliberately split into two phases, mirroring the paper's
// header-parsing stage: ReadRequestLine consumes only the first line
// (enough to classify the request as static or dynamic and pick a target
// pool), and ReadHeaders consumes the remaining header block. The staged
// server parses the full header in the header-parsing pool for dynamic
// requests — "a thread with an open database connection never spends time
// on anything but generating data" — but defers it to the static pool for
// static requests, exactly as described in Section 3.2 of the paper.
//
// What is copied: a request's line and its header block, once each, into
// one immutable string apiece that every name, value and path is a
// substring of (nothing aliases the reader's buffer, so handlers may keep
// what they are given); a query map only when there is a query or a form.
// What is pooled: the buffer a reply is assembled in — head and body, one
// Write — and the buffer ReadResponse fills for a relay, both from
// GetBuffer. Who owns a buffer: whoever took it, until PutBuffer; the
// balancer's job holds a shard's reply from the read to the client write.
//
// net/http is not used on the serving path: its one-goroutine-per-
// connection model would erase the bounded-thread-pool phenomenon the
// reproduction studies.
package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Wire protocol limits, guarding against malformed or hostile input.
const (
	MaxRequestLineBytes = 8 << 10
	MaxHeaderBytes      = 64 << 10
	MaxBodyBytes        = 1 << 20
)

// Errors reported by the parser.
var (
	ErrLineTooLong   = errors.New("httpwire: request line too long")
	ErrHeaderTooBig  = errors.New("httpwire: header block too large")
	ErrBodyTooBig    = errors.New("httpwire: body too large")
	ErrMalformedLine = errors.New("httpwire: malformed request line")
	ErrMalformedHdr  = errors.New("httpwire: malformed header field")
	ErrBadProto      = errors.New("httpwire: unsupported protocol version")
)

// RequestLine is the result of phase-one parsing: just the first line of
// the request, the minimum needed for pool dispatch.
type RequestLine struct {
	Method   string
	Target   string // as sent, e.g. /search?q=go
	Proto    string // HTTP/1.0 or HTTP/1.1
	Path     string // target before '?'
	RawQuery string // target after '?', may be empty
}

// IsStatic classifies the request the way the paper's header-parsing
// threads do: a path whose final segment has a file extension is a static
// file; anything else is a dynamic page.
func (rl RequestLine) IsStatic() bool {
	slash := strings.LastIndexByte(rl.Path, '/')
	last := rl.Path
	if slash >= 0 {
		last = rl.Path[slash+1:]
	}
	dot := strings.LastIndexByte(last, '.')
	return dot > 0 && dot < len(last)-1
}

// ReadRequestLine reads and parses only the first line of an HTTP request.
func ReadRequestLine(br *bufio.Reader) (RequestLine, error) {
	line, err := readLine(br, MaxRequestLineBytes, ErrLineTooLong)
	if err != nil {
		return RequestLine{}, err
	}
	return ParseRequestLine(line)
}

// ParseRequestLine parses a request line such as
// "GET /home?user=5 HTTP/1.1".
func ParseRequestLine(line string) (RequestLine, error) {
	first := strings.IndexByte(line, ' ')
	if first < 0 {
		return RequestLine{}, fmt.Errorf("%w: %q", ErrMalformedLine, line)
	}
	last := strings.LastIndexByte(line, ' ')
	if last == first {
		return RequestLine{}, fmt.Errorf("%w: %q", ErrMalformedLine, line)
	}
	rl := RequestLine{
		Method: line[:first],
		Target: strings.TrimSpace(line[first+1 : last]),
		Proto:  line[last+1:],
	}
	if rl.Method == "" || rl.Target == "" {
		return RequestLine{}, fmt.Errorf("%w: %q", ErrMalformedLine, line)
	}
	for _, c := range rl.Method {
		if c < 'A' || c > 'Z' {
			return RequestLine{}, fmt.Errorf("%w: bad method %q", ErrMalformedLine, rl.Method)
		}
	}
	if rl.Proto != "HTTP/1.1" && rl.Proto != "HTTP/1.0" {
		return RequestLine{}, fmt.Errorf("%w: %q", ErrBadProto, rl.Proto)
	}
	if q := strings.IndexByte(rl.Target, '?'); q >= 0 {
		rl.Path, rl.RawQuery = rl.Target[:q], rl.Target[q+1:]
	} else {
		rl.Path = rl.Target
	}
	return rl, nil
}

// Field is one header field.
type Field struct{ Name, Value string }

// Header is a case-insensitive single-valued header list, in the order
// the fields were sent. Names are stored in canonical form (e.g.
// "Content-Length"); when a name repeats, the last field wins.
type Header []Field

// Get returns the value for key (any case), or "".
func (h Header) Get(key string) string {
	key = CanonicalKey(key)
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].Name == key {
			return h[i].Value
		}
	}
	return ""
}

// ReadHeaders reads the header block (phase two), up to and including the
// blank line that terminates it.
func ReadHeaders(br *bufio.Reader) (Header, error) { return AppendHeaders(nil, br) }

// AppendHeaders is ReadHeaders into storage the caller owns: the fields
// are appended to dst. The field lines are staged on the stack as
// bufio.Reader.ReadSlice hands them over and copied to the heap once, as
// one string that every name and value is a substring of — immutable, so
// a value may outlive the reader's buffer (handlers store them).
func AppendHeaders(dst Header, br *bufio.Reader) (Header, error) {
	type span struct{ start, colon, end int }
	var (
		stage   [512]byte
		spanBuf [8]span
		block   = stage[:0] // the lines, terminators dropped
		spans   = spanBuf[:0]
		err     error
	)
	for {
		start := len(block)
		if block, err = appendLine(block, br, MaxHeaderBytes, ErrHeaderTooBig); err != nil {
			return nil, err
		}
		line := trimEOL(block[start:])
		if len(line) == 0 {
			block = block[:start]
			break
		}
		if block = block[:start+len(line)]; len(block) > MaxHeaderBytes {
			return nil, ErrHeaderTooBig
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return nil, fmt.Errorf("%w: %q", ErrMalformedHdr, string(line))
		}
		if bytes.IndexByte(line[:colon], ' ') >= 0 || bytes.IndexByte(line[:colon], '\t') >= 0 {
			return nil, fmt.Errorf("%w: whitespace in field name %q", ErrMalformedHdr, string(line[:colon]))
		}
		spans = append(spans, span{start, start + colon, len(block)})
	}
	s := string(block)
	for _, f := range spans {
		dst = append(dst, Field{CanonicalKey(s[f.start:f.colon]), strings.TrimSpace(s[f.colon+1 : f.end])})
	}
	return dst, nil
}

// Request is a fully parsed HTTP request.
type Request struct {
	Line   RequestLine
	Header Header
	Query  map[string]string // parsed from RawQuery and any form body; nil when there is neither
	Body   []byte

	fields [8]Field // Header's storage for the usual handful of fields
}

// KeepAlive reports whether the connection should stay open after the
// response, per HTTP/1.0 and 1.1 defaults and the Connection header.
func (r *Request) KeepAlive() bool {
	conn := r.Header.Get("Connection")
	if r.Line.Proto == "HTTP/1.1" {
		return !strings.EqualFold(conn, "close")
	}
	return strings.EqualFold(conn, "keep-alive")
}

// ReadRequest performs both parse phases plus query/body handling into a
// new Request, for a caller that keeps each request it reads.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	req := new(Request)
	if err := req.Parse(br); err != nil {
		return nil, err
	}
	return req, nil
}

// Parse is ReadRequest into a Request the caller reuses, which is safe
// once nothing holds the previous request's Header, Query or Body. On an
// error the request's contents are unspecified.
func (r *Request) Parse(br *bufio.Reader) error {
	line, err := ReadRequestLine(br)
	if err != nil {
		return err
	}
	r.Line = line
	return r.finish(br)
}

// FinishRequest completes phase two for a request whose first line has
// already been read: remaining headers, query string, and form body.
func FinishRequest(br *bufio.Reader, line RequestLine) (*Request, error) {
	req := &Request{Line: line}
	if err := req.finish(br); err != nil {
		return nil, err
	}
	return req, nil
}

func (r *Request) finish(br *bufio.Reader) (err error) {
	r.Query, r.Body = nil, nil
	if r.Header, err = AppendHeaders(r.fields[:0], br); err != nil {
		return err
	}
	if r.Line.RawQuery != "" {
		if r.Query, err = ParseQuery(r.Line.RawQuery); err != nil {
			return err
		}
	}
	cl := r.Header.Get("Content-Length")
	if cl == "" {
		return nil
	}
	n, err := strconv.Atoi(cl)
	if err != nil || n < 0 {
		return fmt.Errorf("%w: Content-Length %q", ErrMalformedHdr, cl)
	}
	if n > MaxBodyBytes {
		return ErrBodyTooBig
	}
	r.Body = make([]byte, n)
	if _, err := io.ReadFull(br, r.Body); err != nil {
		return fmt.Errorf("httpwire: reading body: %w", err)
	}
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/x-www-form-urlencoded") {
		form, err := ParseQuery(string(r.Body))
		if err != nil {
			return err
		}
		if r.Query == nil {
			r.Query = form
		} else {
			for k, v := range form {
				r.Query[k] = v
			}
		}
	}
	return nil
}

// readLine reads a CRLF- or LF-terminated line without the terminator,
// staged on the stack like a header block and copied to the heap once.
func readLine(br *bufio.Reader, limit int, tooLong error) (string, error) {
	var stage [512]byte
	line, err := appendLine(stage[:0], br, limit, tooLong)
	if err != nil {
		return "", err
	}
	return string(trimEOL(line)), nil
}

// appendLine appends the next line, terminator included, to dst, from as
// many ReadSlice views as it spans; more than limit bytes are tooLong.
func appendLine(dst []byte, br *bufio.Reader, limit int, tooLong error) ([]byte, error) {
	for start := len(dst); ; {
		chunk, err := br.ReadSlice('\n')
		if dst = append(dst, chunk...); len(dst)-start > limit {
			return dst, tooLong
		}
		if err != bufio.ErrBufferFull {
			return dst, err
		}
	}
}

// trimEOL drops one trailing "\n" and then one trailing "\r".
func trimEOL(b []byte) []byte {
	return bytes.TrimSuffix(bytes.TrimSuffix(b, []byte("\n")), []byte("\r"))
}

// CanonicalKey converts a header field name to canonical form:
// "content-length" -> "Content-Length". A key already in that form — what
// clients send and what this package looks up — is returned as it is,
// without a copy.
func CanonicalKey(key string) string {
	upper := true
	for i := 0; i < len(key); i++ {
		c := key[i]
		if upper && 'a' <= c && c <= 'z' || !upper && 'A' <= c && c <= 'Z' {
			return canonicalize(key)
		}
		upper = c == '-'
	}
	return key
}

func canonicalize(key string) string {
	b := []byte(key)
	upper := true
	for i, c := range b {
		if upper && 'a' <= c && c <= 'z' {
			b[i] = c - ('a' - 'A')
		} else if !upper && 'A' <= c && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
		upper = c == '-'
	}
	return string(b)
}
