package server

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/httpwire"
	"stagedweb/internal/metrics"
)

// plainText is the content type of the transport's terse error bodies.
const plainText = "text/plain; charset=utf-8"

// TransportConfig configures the connection layer shared by both server
// variants.
type TransportConfig struct {
	// IdleTimeout bounds how long the transport waits for the next
	// request's bytes on a connection (wall time), like CherryPy's socket
	// timeout. Defaults to 10 s.
	IdleTimeout time.Duration
	// Clock and Scale drive cost-model sleeps and convert paper time to
	// wall time. Defaults: real clock, real time.
	Clock clock.Clock
	Scale clock.Timescale
	// Cost models render/static worker time (paper time); the zero value
	// charges nothing.
	Cost WorkCost
	// OnComplete, when set, receives a CompletionEvent per request.
	OnComplete func(CompletionEvent)
}

// Transport is the connection layer both server variants share: the
// accept loop, buffered connection lifecycle (with bufio readers
// recycled through a sync.Pool), two-phase httpwire parsing, reply
// writing — every reply is assembled in one pooled buffer and leaves in
// one Write, so a connection holds no write buffer of its own —
// paper-time cost charging, and completion events.
//
// The variants differ only in *which worker runs which step*; everything
// about moving bytes and accounting for them lives here.
type Transport struct {
	idleTimeout time.Duration
	clk         clock.Clock
	scale       clock.Timescale
	cost        WorkCost
	onComplete  func(CompletionEvent)

	accepted metrics.Counter
	served   metrics.Counter
}

// NewTransport fills defaults and builds the transport.
func NewTransport(cfg TransportConfig) *Transport {
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 10 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Scale == 0 {
		cfg.Scale = clock.RealTime
	}
	return &Transport{
		idleTimeout: cfg.IdleTimeout,
		clk:         cfg.Clock,
		scale:       cfg.Scale,
		cost:        cfg.Cost,
		onComplete:  cfg.OnComplete,
	}
}

// bufio readers are recycled across connections: accept-heavy workloads
// (closed connections, shed keep-alives) would otherwise allocate a
// reader and its 4 KiB buffer per connection.
var readerPool = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// Conn is a client connection moving through a server. It carries the
// buffered reader and the acquisition time of the request currently being
// processed.
type Conn struct {
	t  *Transport
	nc net.Conn
	br *bufio.Reader
	// hdr is the storage ReadHeaders parses into, reused from request to
	// request.
	hdr [8]httpwire.Field
	// Acquired is when the current request started processing, read from
	// the transport's injected clock; server-side response times are
	// measured from it. (Socket read deadlines stay on the wall clock —
	// the kernel does not honor a manual test clock.)
	Acquired time.Time

	closed  atomic.Bool
	aborted atomic.Bool
}

// errAborted reports a connection unparked by Abort during shutdown.
var errAborted = errors.New("server: connection aborted")

// NewConn wraps nc with pooled buffers. Callers must Close the Conn to
// return them.
func (t *Transport) NewConn(nc net.Conn) *Conn {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(nc)
	return &Conn{t: t, nc: nc, br: br}
}

// Close closes the network connection and returns the buffers to their
// pools. Idempotent.
func (c *Conn) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	_ = c.nc.Close()
	c.br.Reset(nil)
	readerPool.Put(c.br)
	c.br = nil
}

// ReadRequestLine marks the request acquired and reads its first line
// (phase one of the two-phase parse), bounding the wait by the idle
// timeout so a silent keep-alive client cannot pin a worker.
func (c *Conn) ReadRequestLine() (httpwire.RequestLine, error) {
	c.Acquired = c.t.clk.Now()
	_ = c.nc.SetReadDeadline(time.Now().Add(c.t.idleTimeout))
	line, err := httpwire.ReadRequestLine(c.br)
	if err != nil {
		return line, err
	}
	_ = c.nc.SetReadDeadline(time.Time{})
	return line, nil
}

// ReadHeaders reads the header block (phase two) for a caller that is
// done with the result before the connection's next request is read: the
// fields live in storage the Conn reuses. (Their strings are immutable
// copies and may be kept.)
func (c *Conn) ReadHeaders() (httpwire.Header, error) {
	return httpwire.AppendHeaders(c.hdr[:0], c.br)
}

// FinishRequest completes phase two — headers, query, form body — for a
// request whose first line has been read.
func (c *Conn) FinishRequest(line httpwire.RequestLine) (*httpwire.Request, error) {
	return httpwire.FinishRequest(c.br, line)
}

// ReadRequest marks the request acquired and performs both parse phases,
// bounded by the idle timeout — the convenience path for workers that do
// everything themselves.
func (c *Conn) ReadRequest() (*httpwire.Request, error) {
	c.Acquired = c.t.clk.Now()
	_ = c.nc.SetReadDeadline(time.Now().Add(c.t.idleTimeout))
	req, err := httpwire.ReadRequest(c.br)
	if err != nil {
		return nil, err
	}
	_ = c.nc.SetReadDeadline(time.Time{})
	return req, nil
}

// AwaitReadable blocks until the connection has readable bytes (a
// request's first byte) or the idle timeout passes. It plays the role of
// the OS readiness notification (select/poll in CherryPy's listener).
func (c *Conn) AwaitReadable() error {
	_ = c.nc.SetReadDeadline(time.Now().Add(c.t.idleTimeout))
	// Re-check after arming the deadline: an Abort that ran before this
	// point is seen here; one that runs after re-expires the deadline we
	// just set. Either way the park cannot outlive the abort.
	if c.aborted.Load() {
		return errAborted
	}
	if _, err := c.br.Peek(1); err != nil {
		return err
	}
	_ = c.nc.SetReadDeadline(time.Time{})
	return nil
}

// Abort expires the connection's read deadline so any goroutine blocked
// in AwaitReadable (or a read) fails promptly and closes the connection
// itself. Servers use it to unpark keep-alive connections on shutdown:
// unlike calling Close from a second goroutine, Abort never races the
// parked reader's use of the pooled buffers.
func (c *Conn) Abort() {
	c.aborted.Store(true)
	if c.closed.Load() {
		return
	}
	_ = c.nc.SetReadDeadline(time.Now().Add(-time.Second))
}

// WriteError writes a plain error response without firing a completion
// event (used for protocol-level failures such as malformed requests).
func (c *Conn) WriteError(status int, msg string) error {
	return httpwire.WriteError(c.nc, status, msg)
}

// Accept runs the accept loop: accept, count, wrap, hand to sink. A sink
// error means the server is shutting down; the connection is closed and
// the loop exits cleanly. The returned error is nil after a clean Stop.
func (t *Transport) Accept(l net.Listener, sink func(*Conn) error) error {
	for {
		nc, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		t.accepted.Inc()
		c := t.NewConn(nc)
		if err := sink(c); err != nil {
			c.Close()
			return nil // shutting down
		}
	}
}

// Charge sleeps a paper-time work cost through the timescale.
func (t *Transport) Charge(paperCost time.Duration) {
	if paperCost > 0 {
		t.clk.Sleep(t.scale.Wall(paperCost))
	}
}

// Accepted reports connections accepted.
func (t *Transport) Accepted() int64 { return t.accepted.Value() }

// Served reports completed requests.
func (t *Transport) Served() int64 { return t.served.Value() }

// complete fires the completion event for a finished request. Times come
// from the injected clock, so under clock.Manual the classifier and the
// harness see paper-consistent durations instead of ~0 wall gaps.
func (t *Transport) complete(page string, class Class, status int, acquired time.Time) {
	t.served.Inc()
	if t.onComplete != nil {
		t.onComplete(CompletionEvent{
			Page:       page,
			Class:      class,
			Status:     status,
			Done:       t.clk.Now(),
			ServerTime: t.clk.Since(acquired),
		})
	}
}

// Reply writes resp and fires the completion event. It reports whether
// the connection is still usable for keep-alive; false means the caller
// must close it (write failure or a non-keep-alive response).
func (t *Transport) Reply(c *Conn, page string, class Class, resp *httpwire.Response) bool {
	return t.replied(c, page, class, resp, resp.Write(c.nc))
}

func (t *Transport) replied(c *Conn, page string, class Class, resp *httpwire.Response, err error) bool {
	if err != nil {
		return false
	}
	t.complete(page, class, resp.Status, c.Acquired)
	return resp.KeepAlive
}

// DirectReply sends a terminal plain response (404s, 500s, direct
// strings). Same contract as Reply.
func (t *Transport) DirectReply(c *Conn, page string, class Class, status int, body []byte, contentType string, keep bool) bool {
	return t.Reply(c, page, class, &httpwire.Response{
		Status: status, ContentType: contentType, Body: body, KeepAlive: keep,
	})
}

// ServeStatic resolves, charges, and serves a static asset (404 on a
// miss). Same contract as Reply.
func (t *Transport) ServeStatic(c *Conn, app App, path string, keep bool) bool {
	body, ct, ok := app.Static(path)
	status := httpwire.StatusOK
	if !ok {
		status, body, ct, keep = httpwire.StatusNotFound, []byte("not found"), plainText, false
	} else {
		t.Charge(t.cost.Static(len(body)))
	}
	return t.Reply(c, path, ClassStatic, &httpwire.Response{
		Status: status, ContentType: ct, Body: body, KeepAlive: keep,
	})
}

// FinishDynamic materializes a handler result — rendering the template if
// deferred — charges the render cost on the calling worker, writes the
// response, and fires the completion event. Which worker calls this is
// exactly the paper's design space: the baseline calls it on the
// connection-holding worker, the staged server on the rendering pool (or
// on the dynamic worker for backward-compatible pre-rendered results).
// Same contract as Reply.
func (t *Transport) FinishDynamic(c *Conn, app App, page string, class Class, res *Result, keep bool) bool {
	buf := bodyPool.Get().(*[]byte)
	defer putBody(buf)
	// The page is rendered behind httpwire.HeadRoom spare bytes, where
	// WriteInPlace lays the head: one buffer, one Write, no second copy.
	wire, ct, status, err := RenderResult(app, res, (*buf)[:httpwire.HeadRoom])
	*buf = wire // keep the buffer's growth, whatever the outcome
	if err != nil {
		return t.DirectReply(c, page, class, httpwire.StatusInternalServerError, []byte("render error"), plainText, false)
	}
	if res.Deferred() || res.Body != "" {
		// Deferred results render here; pre-rendered bodies were rendered
		// inside the handler. Either way the render cost lands on the
		// worker that produced the bytes.
		t.Charge(t.cost.Render(len(wire) - httpwire.HeadRoom))
	}
	resp := BuildResponse(res, ct, status, keep)
	return t.replied(c, page, class, &resp, resp.WriteInPlace(c.nc, wire))
}

// bodyPool recycles the buffers dynamic pages are rendered into and
// written from. FinishDynamic holds one from before the render until the
// reply has been written to the connection, so the pool holds about as
// many as there are workers finishing pages at once.
var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, httpwire.HeadRoom, 4<<10)
	return &b
}}

// maxPooledBody keeps one outsized page from pinning its buffer for good.
const maxPooledBody = 1 << 20

func putBody(buf *[]byte) {
	if cap(*buf) <= maxPooledBody {
		bodyPool.Put(buf)
	}
}
