package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
)

// Status codes used by the servers.
const (
	StatusOK                  = 200
	StatusFound               = 302
	StatusBadRequest          = 400
	StatusNotFound            = 404
	StatusMethodNotAllowed    = 405
	StatusInternalServerError = 500
	StatusServiceUnavailable  = 503
)

var statusText = map[int]string{
	StatusOK:                  "OK",
	StatusFound:               "Found",
	StatusBadRequest:          "Bad Request",
	StatusNotFound:            "Not Found",
	StatusMethodNotAllowed:    "Method Not Allowed",
	StatusInternalServerError: "Internal Server Error",
	StatusServiceUnavailable:  "Service Unavailable",
}

// StatusText returns the reason phrase for code, or "Unknown".
func StatusText(code int) string {
	if s, ok := statusText[code]; ok {
		return s
	}
	return "Unknown"
}

// Response is a complete HTTP response ready to be written. Rendering a
// template first and only then building the Response is what lets the
// modified server set Content-Length exactly — the capability the paper
// notes most dynamic-content servers lack.
type Response struct {
	Status      int
	ContentType string
	Body        []byte
	KeepAlive   bool
	Extra       Header // optional extra headers (e.g. Location)
}

// AppendHead appends the status line and the header block, blank line
// included, with the exact Content-Length of r.Body.
func (r *Response) AppendHead(dst []byte) []byte {
	ct := r.ContentType
	if ct == "" {
		ct = "text/html; charset=utf-8"
	}
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(r.Status), 10)
	dst = append(dst, ' ')
	dst = append(dst, StatusText(r.Status)...)
	dst = append(dst, "\r\nServer: stagedweb\r\nContent-Type: "...)
	dst = append(dst, ct...)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(r.Body)), 10)
	if r.KeepAlive {
		dst = append(dst, "\r\nConnection: keep-alive"...)
	} else {
		dst = append(dst, "\r\nConnection: close"...)
	}
	for _, f := range r.Extra {
		dst = append(dst, "\r\n"...)
		dst = append(dst, f.Name...)
		dst = append(dst, ": "...)
		dst = append(dst, f.Value...)
	}
	return append(dst, "\r\n\r\n"...)
}

// MaxOneWrite is the largest reply (head and body) that is assembled in
// one buffer and handed to the connection in a single Write; a larger one
// leaves as its head and then its body, so that no pooled buffer grows to
// the size of the largest file ever served.
const MaxOneWrite = 64<<10 + 1<<10

// Write serializes the response, including an exact Content-Length, into
// a pooled buffer and sends it to w in one Write call.
func (r *Response) Write(w io.Writer) error {
	bp := GetBuffer()
	defer PutBuffer(bp)
	*bp = r.AppendHead((*bp)[:0])
	if len(*bp)+len(r.Body) > MaxOneWrite {
		if _, err := w.Write(*bp); err != nil {
			return err
		}
		_, err := w.Write(r.Body)
		return err
	}
	*bp = append(*bp, r.Body...)
	_, err := w.Write(*bp)
	return err
}

// HeadRoom is the space WriteInPlace needs in front of the body.
const HeadRoom = 256

// WriteInPlace sends a response whose body the caller built in
// buf[HeadRoom:]: the head is laid against it in buf[:HeadRoom], so head
// and body leave in one Write and the body is not copied again. r.Body is
// set to the body. A head that does not fit (long Extra values) takes the
// copying path of Write.
func (r *Response) WriteInPlace(w io.Writer, buf []byte) error {
	r.Body = buf[HeadRoom:]
	var scratch [HeadRoom]byte
	head := r.AppendHead(scratch[:0])
	if len(head) > HeadRoom {
		return r.Write(w)
	}
	start := HeadRoom - len(head)
	copy(buf[start:], head)
	_, err := w.Write(buf[start:])
	return err
}

// wirePool recycles the buffers replies and relayed messages are
// assembled in. A buffer belongs to whoever took it until PutBuffer.
var wirePool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuffer takes a wire buffer from the pool; its contents are garbage.
func GetBuffer() *[]byte { return wirePool.Get().(*[]byte) }

// PutBuffer returns a buffer unless it has grown past MaxOneWrite.
func PutBuffer(bp *[]byte) {
	if cap(*bp) <= MaxOneWrite {
		wirePool.Put(bp)
	}
}

// WriteError writes a minimal error response with a plain-text body.
func WriteError(w io.Writer, status int, msg string) error {
	resp := Response{
		Status:      status,
		ContentType: "text/plain; charset=utf-8",
		Body:        []byte(msg),
	}
	return resp.Write(w)
}

// ErrMalformedResp reports a response this package cannot frame.
var ErrMalformedResp = errors.New("httpwire: malformed response")

// RawResponse is a response read off a connection and kept as bytes.
type RawResponse struct {
	Status int
	// KeepAlive is false when the sender announced "Connection: close".
	KeepAlive bool
	// Raw is the status line, the header lines in the order they were
	// sent, the blank line and the body.
	Raw       []byte
	hdr, body int // offsets in Raw of the first header line and the body
}

// Body returns the response body, a slice of Raw.
func (r *RawResponse) Body() []byte { return r.Raw[r.body:] }

// Header parses the header lines.
func (r *RawResponse) Header() (Header, error) {
	head := r.Raw[r.hdr:r.body]
	return ReadHeaders(bufio.NewReaderSize(bytes.NewReader(head), len(head)))
}

// ReadResponse reads one response with a Content-Length body from br into
// buf's storage, byte for byte as it was sent — except that a non-empty
// connection replaces the value of the Connection line (or adds the
// line), which is all a relay has to change. It parses only what framing
// needs: the status, Content-Length and Connection.
func ReadResponse(br *bufio.Reader, buf []byte, connection string) (r RawResponse, err error) {
	r.KeepAlive = true
	buf = buf[:0]
	length, sawConn := -1, false
	for {
		start := len(buf)
		if buf, err = appendLine(buf, br, MaxHeaderBytes-start, ErrHeaderTooBig); err != nil {
			return r, err
		}
		line := trimEOL(buf[start:])
		name, value, isField := bytes.Cut(line, []byte(":"))
		switch {
		case start == 0: // "HTTP/1.1 200 OK"
			proto, rest, _ := bytes.Cut(line, []byte(" "))
			code, _, _ := bytes.Cut(rest, []byte(" "))
			if r.Status, err = strconv.Atoi(string(code)); err != nil || !bytes.HasPrefix(proto, []byte("HTTP/1.")) {
				return r, fmt.Errorf("%w: status line %q", ErrMalformedResp, string(line))
			}
			r.hdr = len(buf)
		case len(line) == 0:
			if connection != "" && !sawConn {
				buf = append(append(append(buf[:start], "Connection: "...), connection...), "\r\n\r\n"...)
			}
			if length < 0 {
				return r, fmt.Errorf("%w: no Content-Length", ErrMalformedResp)
			}
			r.body = len(buf)
			buf = slices.Grow(buf, length)[:len(buf)+length]
			_, err = io.ReadFull(br, buf[r.body:])
			r.Raw = buf
			return r, err
		case !isField:
			return r, fmt.Errorf("%w: header line %q", ErrMalformedResp, string(line))
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(bytes.TrimSpace(value))); err != nil || length < 0 || length > 1<<30 {
				return r, fmt.Errorf("%w: Content-Length %q", ErrMalformedResp, string(value))
			}
		case bytes.EqualFold(name, []byte("Connection")):
			r.KeepAlive = !bytes.EqualFold(bytes.TrimSpace(value), []byte("close"))
			if sawConn = connection != ""; sawConn {
				buf = append(append(append(buf[:start], "Connection: "...), connection...), "\r\n"...)
			}
		}
	}
}
