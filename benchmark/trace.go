package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/tpcw"
)

// The traced pass records spans from the benchmark's own files, around
// the calls into each layer, through public seams only: a server.App
// wrapper whose Handler returns a timing HandlerFunc and swaps
// Request.DB for a timing server.DBConn, and Env.OnComplete. Spans nest
// request ⊃ handler ⊃ stmt; a request's id travels in the X-Bench-Id
// header. In-program spans (queue wait per stage, acquire, render) are
// the later tracing issue.

type spanKind uint8

const (
	spanRequest spanKind = iota // client: send to last response byte
	spanHandler                 // the page's HandlerFunc
	spanStmt                    // one Query/Exec through the handler's DBConn
)

var spanKindNames = [...]string{"request", "handler", "stmt"}

// span is one timed interval. Times are ns since the driver epoch.
type span struct {
	id     uint64
	parent uint64 // 0 = none known
	kind   spanKind
	page   int16 // index into tpcw.Pages; -1 for a static
	write  bool  // stmt: Exec rather than Query
	start  int64
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover.
func selfTimes(spans []span) map[uint64]int64 {
	type iv struct{ a, b int64 }
	kids := map[uint64][]iv{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], iv{s.start, s.end})
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.id]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered, upto := int64(0), s.start
		for _, k := range ivs {
			a, b := max(k.a, upto), min(k.b, s.end)
			if b > a {
				covered += b - a
				upto = b
			}
		}
		out[s.id] = s.dur() - covered
	}
	return out
}

// completion is one server.CompletionEvent, reduced.
type completion struct {
	done   int64
	server int64 // ServerTime, ns
	static bool
}

// Ledger inputs recorded by the traced pass: what the handlers really
// rendered and executed, in mix proportion.
type renderSample struct {
	template string
	data     map[string]any
}

type stmtSample struct {
	sql   string
	args  []any
	write bool
}

const (
	maxRenderSamples = 2000
	maxStmtSamples   = 8000
)

// tracer collects the traced pass's spans, completions and ledger
// inputs.
type tracer struct {
	epoch    time.Time   // the driver's epoch, so server and client spans share a time base
	sampling atomic.Bool // ledger inputs are taken from the window, not warm-up
	nextID   atomic.Uint64

	mu          sync.Mutex
	spans       []span
	completions []completion
	renders     []renderSample
	stmts       []stmtSample
}

func newTracer() *tracer {
	t := &tracer{
		spans:       make([]span, 0, 1<<18),
		completions: make([]completion, 0, 1<<18),
	}
	t.nextID.Store(1 << 62) // clear of every request id
	return t
}

func (t *tracer) now() int64 { return int64(clk.Since(t.epoch)) }

func (t *tracer) onComplete(ev server.CompletionEvent) {
	c := completion{
		done:   int64(ev.Done.Sub(t.epoch)),
		server: int64(ev.ServerTime),
		static: ev.Class == server.ClassStatic,
	}
	t.mu.Lock()
	t.completions = append(t.completions, c)
	t.mu.Unlock()
}

// tracedApp is the server.App seam.
type tracedApp struct {
	server.App
	t *tracer
}

func (t *tracer) wrapApp(app server.App) server.App { return tracedApp{App: app, t: t} }

func (a tracedApp) Handler(path string) (server.HandlerFunc, bool) {
	h, ok := a.App.Handler(path)
	if !ok {
		return nil, false
	}
	page := int16(pageIndex[path])
	return func(r *server.Request) (*server.Result, error) {
		// The balancer re-serialises requests without their headers, so
		// behind it a handler span has no known parent.
		reqID, _ := strconv.ParseUint(r.Header.Get("X-Bench-Id"), 10, 64)
		hs := span{id: a.t.nextID.Add(1), parent: reqID, kind: spanHandler, page: page}
		db := &tracedConn{inner: r.DB, t: a.t, parent: hs.id, page: page}
		traced := *r
		traced.DB = db
		hs.start = a.t.now()
		res, err := h(&traced)
		hs.end = a.t.now()

		a.t.mu.Lock()
		a.t.spans = append(append(a.t.spans, db.spans...), hs)
		if a.t.sampling.Load() {
			if res != nil && res.Deferred() && len(a.t.renders) < maxRenderSamples {
				a.t.renders = append(a.t.renders, renderSample{res.Template, res.Data})
			}
			if room := maxStmtSamples - len(a.t.stmts); room > 0 {
				a.t.stmts = append(a.t.stmts, db.stmts[:min(room, len(db.stmts))]...)
			}
		}
		a.t.mu.Unlock()
		return res, err
	}, true
}

// tracedConn is the server.DBConn seam: it times each statement of one
// handler call. A handler uses its connection from one goroutine, so
// the spans gather locally and are published once, by the handler.
type tracedConn struct {
	inner  server.DBConn
	t      *tracer
	parent uint64
	page   int16
	spans  []span
	stmts  []stmtSample
}

func (c *tracedConn) record(sql string, args []any, write bool, start int64) {
	c.spans = append(c.spans, span{
		id: c.t.nextID.Add(1), parent: c.parent, kind: spanStmt, page: c.page,
		write: write, start: start, end: c.t.now(),
	})
	if c.t.sampling.Load() {
		c.stmts = append(c.stmts, stmtSample{sql, args, write})
	}
}

func (c *tracedConn) Query(sql string, args ...any) (*sqldb.ResultSet, error) {
	start := c.t.now()
	rs, err := c.inner.Query(sql, args...)
	c.record(sql, args, false, start)
	return rs, err
}

func (c *tracedConn) Exec(sql string, args ...any) (sqldb.ExecResult, error) {
	start := c.t.now()
	res, err := c.inner.Exec(sql, args...)
	c.record(sql, args, true, start)
	return res, err
}

// requestSpans converts the client's in-window samples to request spans.
func requestSpans(reqs []sample) []span {
	out := make([]span, len(reqs))
	for i, r := range reqs {
		out[i] = span{id: r.id, kind: spanRequest, page: r.page, start: r.start, end: r.start + r.dur}
	}
	return out
}

// windowSpans returns the server-side spans that ended inside [from,to).
func (t *tracer) windowSpans(from, to int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.end >= from && s.end < to {
			out = append(out, s)
		}
	}
	return out
}

// spanMetrics aggregates the traced pass's spans and completions into
// the per-request layer metrics. "Per request" always means per
// verified HTTP request, statics included, so the figures add up
// against client.rtt_us.
func (t *tracer) spanMetrics(p *pass) values {
	var rttSum int64
	nReq := p.nOK
	for _, r := range p.reqs {
		if r.ok {
			rttSum += r.dur
		}
	}
	server := t.windowSpans(p.from, p.to)
	self := selfTimes(server)
	var (
		nHandler, nStmt, nWrite             int
		handlerSum, handlerSelfSum, stmtSum int64
	)
	for _, s := range server {
		switch s.kind {
		case spanHandler:
			nHandler++
			handlerSum += s.dur()
			handlerSelfSum += self[s.id]
		case spanStmt:
			nStmt++
			stmtSum += s.dur()
			if s.write {
				nWrite++
			}
		}
	}
	var nDone, nStatic int
	var doneSum, staticSum int64
	t.mu.Lock()
	for _, c := range t.completions {
		if c.done < p.from || c.done >= p.to {
			continue
		}
		nDone++
		doneSum += c.server
		if c.static {
			nStatic++
			staticSum += c.server
		}
	}
	t.mu.Unlock()

	us := func(sum int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(sum) / float64(n) / 1e3
	}
	share := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return values{
		"client.rtt_us": us(rttSum, nReq),
		// CompletionEvent carries no request id, so server time is
		// subtracted in aggregate, not per span.
		"client.self_us":         us(rttSum, nReq) - us(doneSum, nReq),
		"server.time_us":         us(doneSum, nDone),
		"server.static_time_us":  us(staticSum, nStatic),
		"server.dynamic_time_us": us(doneSum-staticSum, nDone-nStatic),
		"server.self_us":         us(doneSum-handlerSum, nDone),
		"server.static_share":    share(nStatic, nDone),
		"tpcw.handler_us":        us(handlerSum, nHandler),
		"tpcw.handler_self_us":   us(handlerSelfSum, nHandler),
		"db.stmts_per_req":       share(nStmt, nReq),
		"db.stmt_us":             us(stmtSum, nStmt),
		"db.time_per_req_us":     us(stmtSum, nReq),
		"db.write_share":         share(nWrite, nStmt),
	}
}

// writeSpans writes every span of the window, one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		page := "static"
		if s.page >= 0 {
			page = tpcw.Pages[s.page]
		}
		rec := map[string]any{
			"id": s.id, "parent": s.parent, "kind": spanKindNames[s.kind],
			"page": page, "start_ns": s.start, "end_ns": s.end,
		}
		if s.kind == spanStmt {
			rec["write"] = s.write
		}
		if err := enc.Encode(rec); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
