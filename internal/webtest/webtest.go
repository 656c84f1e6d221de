// Package webtest provides a minimal HTTP client and a configurable
// in-memory application used by server tests, examples, and the workload
// generator's own tests.
//
// The client is deliberately independent of net/http so that tests
// exercise the repository's wire implementation end to end.
package webtest

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/httpwire"
	"stagedweb/internal/server"
	"stagedweb/internal/template"
)

// App is a small server.App for tests and examples.
type App struct {
	set      *template.Set
	handlers map[string]server.HandlerFunc
	statics  map[string]staticFile
}

type staticFile struct {
	body []byte
	ct   string
}

var _ server.App = (*App)(nil)

// NewApp returns an empty application.
func NewApp() *App {
	return &App{
		set:      template.NewSet(),
		handlers: map[string]server.HandlerFunc{},
		statics:  map[string]staticFile{},
	}
}

// AddPage registers a dynamic page handler.
func (a *App) AddPage(path string, h server.HandlerFunc) *App {
	a.handlers[path] = h
	return a
}

// AddTemplate registers a template source.
func (a *App) AddTemplate(name, src string) *App {
	a.set.Add(name, src)
	return a
}

// AddStatic registers a static asset.
func (a *App) AddStatic(path string, body []byte, contentType string) *App {
	a.statics[path] = staticFile{body: body, ct: contentType}
	return a
}

// Handler implements server.App.
func (a *App) Handler(path string) (server.HandlerFunc, bool) {
	h, ok := a.handlers[path]
	return h, ok
}

// Static implements server.App.
func (a *App) Static(path string) ([]byte, string, bool) {
	f, ok := a.statics[path]
	return f.body, f.ct, ok
}

// Templates implements server.App.
func (a *App) Templates() *template.Set { return a.set }

// Response is a parsed HTTP response.
type Response struct {
	Status int
	Header httpwire.Header
	Body   []byte
}

// Client is a single-connection HTTP client (optionally keep-alive).
type Client struct {
	conn net.Conn
	br   *bufio.Reader
}

// Dial connects to addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, br: bufio.NewReader(conn)}, nil
}

// Close closes the underlying connection.
func (c *Client) Close() { _ = c.conn.Close() }

// Do sends one GET request and reads the full response. keepAlive
// controls the Connection header.
func (c *Client) Do(path string, keepAlive bool) (*Response, error) {
	connHdr := "close"
	if keepAlive {
		connHdr = "keep-alive"
	}
	req := fmt.Sprintf("GET %s HTTP/1.1\r\nHost: test\r\nUser-Agent: webtest\r\nConnection: %s\r\n\r\n", path, connHdr)
	if _, err := io.WriteString(c.conn, req); err != nil {
		return nil, err
	}
	return ReadResponse(c.br)
}

// Get performs a one-shot GET with Connection: close on a fresh
// connection.
func Get(addr, path string) (*Response, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Do(path, false)
}

// ReadResponse parses an HTTP/1.1 response with a Content-Length body.
func ReadResponse(br *bufio.Reader) (*Response, error) {
	raw, err := httpwire.ReadResponse(br, nil, "")
	if err != nil {
		return nil, err
	}
	hdr, err := raw.Header()
	if err != nil {
		return nil, err
	}
	return &Response{Status: raw.Status, Header: hdr, Body: raw.Body()}, nil
}

// Listen opens a loopback listener on an ephemeral port.
func Listen() (net.Listener, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return l, l.Addr().String(), nil
}

// WaitUntil polls cond every millisecond until it holds or timeout
// passes, reporting whether it held — the shared wait primitive for
// tests observing asynchronous server state. It waits on the wall
// clock; tests pacing a clock.Manual timeline use WaitUntilOn.
func WaitUntil(timeout time.Duration, cond func() bool) bool {
	return WaitUntilOn(clock.Real{}, timeout, cond)
}

// WaitUntilOn is WaitUntil on an injected clock: the deadline and the
// poll cadence both follow c, so under clock.Manual the wait consumes
// exactly the advanced time and under a dilated clock it stretches with
// the run. Helpers must not hand-roll time.Now deadline loops — that
// re-anchors the wait to the wall and is exactly what the wallclock
// analyzer rejects.
func WaitUntilOn(c clock.Clock, timeout time.Duration, cond func() bool) bool {
	deadline := c.Now().Add(timeout)
	for !cond() {
		if c.Now().After(deadline) {
			return false
		}
		c.Sleep(time.Millisecond)
	}
	return true
}
