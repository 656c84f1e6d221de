package server

import (
	"errors"
	"fmt"
	"net"

	"stagedweb/internal/clock"
	"stagedweb/internal/httpwire"
	"stagedweb/internal/stage"
)

// BaselineConfig configures the thread-per-request server.
type BaselineConfig struct {
	// App is the application to serve.
	App App
	// DB is the database connection workers execute their statements
	// through — in the built-in variant a dbtier connection with one pooled
	// engine connection per worker by default, the paper's convention of a
	// worker owning a connection.
	DB DBConn
	// Workers is the size of the single thread pool.
	Workers int
	// Cost models render/static worker time (paper time); zero charges
	// nothing.
	Cost WorkCost
	// Clock and Scale drive the cost model's sleeps.
	Clock clock.Clock
	Scale clock.Timescale
	// OnComplete, when set, receives a CompletionEvent per request.
	OnComplete func(CompletionEvent)
}

// Baseline is the unmodified thread-per-request server (Figure 4 of the
// paper), expressed as a one-stage graph: a single listener feeding a
// single pool of Workers slots behind a bounded FIFO queue. Each
// connection's session runs on its own goroutine once that goroutine
// holds a slot, and parses, queries, renders, and writes every request
// while holding its database connection.
type Baseline struct {
	cfg     BaselineConfig
	tr      *Transport
	graph   *stage.Graph
	workers *stage.Stage[*Conn]
}

// NewBaseline validates the configuration and builds the server.
func NewBaseline(cfg BaselineConfig) (*Baseline, error) {
	if cfg.App == nil {
		return nil, errors.New("server: nil App")
	}
	if cfg.DB == nil {
		return nil, errors.New("server: nil DB")
	}
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("server: invalid worker count %d", cfg.Workers)
	}
	s := &Baseline{cfg: cfg}
	s.tr = NewTransport(TransportConfig{
		Clock:      cfg.Clock,
		Scale:      cfg.Scale,
		Cost:       cfg.Cost,
		OnComplete: cfg.OnComplete,
	})

	s.workers = stage.New(stage.Config[*Conn]{
		Name:    "baseline",
		Workers: cfg.Workers,
		Work:    s.serveConn,
	})
	s.graph = stage.NewGraph().Add(s.workers)
	return s, nil
}

// Serve accepts connections on l until Stop. It blocks; run it in a
// goroutine. The error is nil after a clean Stop.
func (s *Baseline) Serve(l net.Listener) error {
	return s.tr.Serve(l, func(c *Conn) {
		if s.workers.Submit(c) != nil {
			c.Close() // a full accept queue turns the connection away
		}
	})
}

// Stop closes the listener, aborts every open connection and drains the
// worker pool. A connection still waiting for its first request, as a
// queued one is, may deliver it first, so a client that dialled and sent
// nothing holds Stop for up to the idle timeout (see Transport.Stop).
// It is safe to call before, during, or after Serve, and is idempotent.
func (s *Baseline) Stop() {
	s.tr.Stop()
	s.graph.Stop()
}

// QueueLen reports the single request queue's length — the series plotted
// in Figure 7.
func (s *Baseline) QueueLen() int { return s.workers.Depth() }

// Served reports the number of completed requests.
func (s *Baseline) Served() int64 { return s.tr.Served() }

// Graph exposes the (one-stage) graph for stats snapshots.
func (s *Baseline) Graph() *stage.Graph { return s.graph }

// serveConn handles every request on one connection (keep-alive loop),
// all on the same worker with the same database connection.
func (s *Baseline) serveConn(c *Conn) {
	defer c.Close()
	req := new(httpwire.Request)
	for {
		if err := c.Parse(req); err != nil {
			// EOF/timeout/reset between requests is the normal end of a
			// keep-alive session.
			return
		}
		keep := req.KeepAlive()

		if req.Line.IsStatic() {
			// The worker serves the file itself — holding its database
			// connection idle the whole time.
			if !s.tr.ServeStatic(c, s.cfg.App, req.Line.Path, keep) {
				return
			}
			continue
		}

		handler, ok := s.cfg.App.Handler(req.Line.Path)
		if !ok {
			if !s.tr.DirectReply(c, req.Line.Path, ClassQuick, httpwire.StatusNotFound, []byte("not found"), plainText, false) {
				return
			}
			continue
		}
		res, err := handler(&Request{Path: req.Line.Path, Query: req.Query, Header: req.Header, DB: s.cfg.DB})
		if err != nil {
			if !s.tr.DirectReply(c, req.Line.Path, ClassQuick, httpwire.StatusInternalServerError, []byte("internal error"), plainText, false) {
				return
			}
			continue
		}
		// Thread-per-request: the same worker renders the template while
		// still holding its database connection — the inefficiency the
		// paper removes. The class is ClassQuick throughout; the harness
		// reclassifies dynamics by page key.
		if !s.tr.FinishDynamic(c, s.cfg.App, req.Line.Path, ClassQuick, res, keep) {
			return
		}
	}
}
