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

// Transport is the connection layer both server variants and the
// balancer share: the serving lifecycle (Serve runs the one accept loop,
// Stop closes its listener and ends every connection), buffered
// connection lifecycle (with bufio readers recycled through a
// sync.Pool), two-phase httpwire parsing, reply writing — every reply is
// assembled in one pooled buffer and leaves in one Write, so a
// connection holds no write buffer of its own — paper-time cost
// charging, and completion events.
//
// The variants differ only in *which worker runs which step*; everything
// about moving bytes and accounting for them lives here.
type Transport struct {
	idleTimeout time.Duration
	clk         clock.Clock
	scale       clock.Timescale
	cost        WorkCost
	onComplete  func(CompletionEvent)

	served atomic.Int64

	// conns holds every open connection, so that Stop can abort the ones
	// waiting for their next request instead of waiting out their idle
	// timeout; connWG counts them until they close. listener is what
	// Serve accepts on, for Stop to close.
	mu       sync.Mutex
	listener net.Listener
	conns    map[*Conn]struct{}
	stopping bool
	connWG   sync.WaitGroup
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
		conns:       make(map[*Conn]struct{}),
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
	begun   atomic.Bool // a request has arrived, so Abort applies
}

// errAborted reports a connection unparked by Abort during Stop.
var errAborted = errors.New("server: connection aborted")

// newConn wraps nc with pooled buffers and tracks it until Close, which
// callers must call to return the buffers. Once Stop has begun it wraps
// nothing and returns nil.
func (t *Transport) newConn(nc net.Conn) *Conn {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopping {
		return nil
	}
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(nc)
	c := &Conn{t: t, nc: nc, br: br}
	t.conns[c] = struct{}{}
	t.connWG.Add(1)
	return c
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
	t := c.t
	t.mu.Lock()
	if _, ok := t.conns[c]; ok {
		delete(t.conns, c)
		t.connWG.Done()
	}
	t.mu.Unlock()
}

// Serve runs the accept loop on l until Stop: it wraps each connection
// it accepts and hands it to sink, which owns it from then on and must
// Close it. A connection accepted once Stop has begun is closed instead,
// and l is closed at once if Stop came first. The error is nil after
// Stop.
func (t *Transport) Serve(l net.Listener, sink func(*Conn)) error {
	t.mu.Lock()
	if t.stopping {
		t.mu.Unlock()
		_ = l.Close()
		return nil
	}
	t.listener = l
	t.mu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		c := t.newConn(nc)
		if c == nil {
			_ = nc.Close()
			return nil
		}
		sink(c)
	}
}

// Stop closes the listener, aborts every open connection, then waits
// until all of them are closed. A connection waiting for its next
// request ends at once rather than aging out its idle timeout, and one
// whose request has been read is finished by its owner first. The
// exception is a connection whose first request has not arrived: it may
// still deliver it (see Abort), so a client that dialled and sent
// nothing holds Stop for up to the idle timeout. Stop is idempotent and
// safe before, during or after Serve.
func (t *Transport) Stop() {
	t.mu.Lock()
	t.stopping = true
	l := t.listener
	for c := range t.conns {
		c.Abort()
	}
	t.mu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	t.connWG.Wait()
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

// Parse reads the next request into req, which the caller reuses (see
// httpwire.Request.Parse), bounded by the idle timeout and by Abort. It
// marks the request acquired once its first byte is in: the wait for it
// is the connection's idle time, not the request's.
func (c *Conn) Parse(req *httpwire.Request) error {
	if err := c.armIdle(); err != nil {
		return err
	}
	if _, err := c.br.Peek(1); err != nil {
		return err
	}
	c.Acquired = c.t.clk.Now()
	if err := req.Parse(c.br); err != nil {
		return err
	}
	c.begun.Store(true)
	_ = c.nc.SetReadDeadline(time.Time{})
	return nil
}

// Write writes p to the connection as it is, for a caller that relays
// bytes rather than replying.
func (c *Conn) Write(p []byte) (int, error) { return c.nc.Write(p) }

// AwaitReadable blocks until the connection has readable bytes (a
// request's first byte) or the idle timeout passes. It plays the role of
// the OS readiness notification (select/poll in CherryPy's listener).
func (c *Conn) AwaitReadable() error {
	if err := c.armIdle(); err != nil {
		return err
	}
	if _, err := c.br.Peek(1); err != nil {
		return err
	}
	c.begun.Store(true)
	_ = c.nc.SetReadDeadline(time.Time{})
	return nil
}

// armIdle arms the idle timeout for the wait on the next request, or
// reports errAborted. Checking after arming the deadline: an Abort that
// ran before this point is seen here; one that runs after re-expires the
// deadline just set. Either way the wait cannot outlive the abort.
func (c *Conn) armIdle() error {
	_ = c.nc.SetReadDeadline(time.Now().Add(c.t.idleTimeout))
	if c.aborted.Load() && c.begun.Load() {
		return errAborted
	}
	return nil
}

// Abort ends the connection's wait for its next request: a goroutine
// blocked in AwaitReadable or Parse, or about to block there, fails
// promptly and closes the connection itself. A connection whose first
// request has not arrived is left to deliver it, bounded by the idle
// timeout: its client dialled before Stop, so the request is in
// flight. Unlike calling Close from a second goroutine, Abort never
// races the reader's use of the pooled buffers.
func (c *Conn) Abort() {
	c.aborted.Store(true)
	if c.closed.Load() || !c.begun.Load() {
		return
	}
	_ = c.nc.SetReadDeadline(time.Now().Add(-time.Second))
}

// WriteError writes a plain error response without firing a completion
// event (used for protocol-level failures such as malformed requests).
func (c *Conn) WriteError(status int, msg string) error {
	return httpwire.WriteError(c.nc, status, msg)
}

// Charge sleeps a paper-time work cost through the timescale.
func (t *Transport) Charge(paperCost time.Duration) {
	if paperCost > 0 {
		t.clk.Sleep(t.scale.Wall(paperCost))
	}
}

// Served reports completed requests.
func (t *Transport) Served() int64 { return t.served.Load() }

// complete fires the completion event for a finished request. Times come
// from the injected clock, so under clock.Manual the classifier and the
// harness see paper-consistent durations instead of ~0 wall gaps.
func (t *Transport) complete(page string, class Class, status int, acquired time.Time) {
	t.served.Add(1)
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
	resp := httpwire.Response{Status: status, ContentType: ct, KeepAlive: keep}
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
