// Package httpwire implements the HTTP/1.1 wire protocol used by both
// server variants.
//
// Parsing is deliberately split into two phases, mirroring the paper's
// header-parsing stage: ReadRequestLine consumes only the first line
// (enough to classify the request as static or dynamic and pick a target
// pool), and ReadHeaders consumes the remaining header block. The staged
// server parses the full header in the header-parsing pool for dynamic
// requests but defers it to the static pool for static requests, exactly
// as described in Section 3.2 of the paper.
//
// net/http is not used on the serving path: its one-goroutine-per-
// connection model would erase the bounded-thread-pool phenomenon the
// reproduction studies.
package httpwire

import (
	"bufio"
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

// Header is a case-insensitive single-valued header map. Keys are stored
// in canonical form (e.g. "Content-Length").
type Header map[string]string

// Get returns the value for key (any case), or "".
func (h Header) Get(key string) string { return h[CanonicalKey(key)] }

// Set stores value under the canonical form of key.
func (h Header) Set(key, value string) { h[CanonicalKey(key)] = value }

// ReadHeaders reads the header block (phase two), up to and including the
// blank line that terminates it.
func ReadHeaders(br *bufio.Reader) (Header, error) {
	h := make(Header, 8)
	total := 0
	for {
		line, err := readLine(br, MaxHeaderBytes, ErrHeaderTooBig)
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
		h.Set(key, strings.TrimSpace(line[colon+1:]))
	}
}

// Request is a fully parsed HTTP request.
type Request struct {
	Line   RequestLine
	Header Header
	Query  map[string]string // parsed from RawQuery and any form body
	Body   []byte
}

// KeepAlive reports whether the connection should stay open after the
// response, per HTTP/1.0 and 1.1 defaults and the Connection header.
func (r *Request) KeepAlive() bool {
	conn := strings.ToLower(r.Header.Get("Connection"))
	switch r.Line.Proto {
	case "HTTP/1.1":
		return conn != "close"
	default:
		return conn == "keep-alive"
	}
}

// ReadRequest performs both parse phases plus query/body handling — the
// convenience path used by the baseline thread-per-request server, whose
// workers do everything themselves.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	line, err := ReadRequestLine(br)
	if err != nil {
		return nil, err
	}
	return FinishRequest(br, line)
}

// FinishRequest completes phase two for a request whose first line has
// already been read: remaining headers, query string, and form body.
func FinishRequest(br *bufio.Reader, line RequestLine) (*Request, error) {
	hdr, err := ReadHeaders(br)
	if err != nil {
		return nil, err
	}
	req := &Request{Line: line, Header: hdr}
	req.Query, err = ParseQuery(line.RawQuery)
	if err != nil {
		return nil, err
	}
	if cl := hdr.Get("Content-Length"); cl != "" {
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
		if strings.HasPrefix(hdr.Get("Content-Type"), "application/x-www-form-urlencoded") {
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

// readLine reads a CRLF- or LF-terminated line without the terminator.
func readLine(br *bufio.Reader, limit int, tooLong error) (string, error) {
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
