package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/dbtier"
	"stagedweb/internal/httpwire"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/stage"
)

// BaselineConfig configures the thread-per-request server.
type BaselineConfig struct {
	// App is the application to serve.
	App App
	// DB is the primary database. The server fronts it with a dbtier
	// (Replicas backends, DBConns pooled connections per backend) and
	// workers execute their statements through it — with the defaults
	// (one backend, one connection per worker) this is exactly the
	// paper's convention of a worker owning a connection.
	DB *sqldb.DB
	// Workers is the size of the single thread pool (and the default
	// database connection budget).
	Workers int
	// Replicas is the total number of database backends (primary
	// included); values below 1 mean 1 — no replication.
	Replicas int
	// DBConns is the connection pool size per backend; it defaults to
	// Workers, so acquisition only ever waits when configured scarcer
	// than the worker pool.
	DBConns int
	// MVCC switches the primary's storage engine to snapshot reads plus
	// optimistic first-writer-wins writes. False keeps per-table
	// reader-writer locks, the paper's concurrency model.
	MVCC bool
	// ReplAsync ships the replication log to replicas asynchronously
	// instead of making writers wait for every replica to apply.
	ReplAsync bool
	// QueueCap bounds the accept queue. Defaults to 4096.
	QueueCap int
	// IdleTimeout bounds how long a worker waits for the next request on
	// a keep-alive connection (wall time), like CherryPy's socket
	// timeout. Defaults to 10 s.
	IdleTimeout time.Duration
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
	tier    *dbtier.Tier

	mu       sync.Mutex
	listener net.Listener
	stopped  bool
	stopOnce sync.Once
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
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4096
	}
	s := &Baseline{cfg: cfg}
	s.tr = NewTransport(TransportConfig{
		IdleTimeout: cfg.IdleTimeout,
		Clock:       cfg.Clock,
		Scale:       cfg.Scale,
		Cost:        cfg.Cost,
		OnComplete:  cfg.OnComplete,
	})

	// The database tier fronts the primary: by default one backend with
	// one pooled connection per worker, so a worker's statements never
	// wait — the paper's one-connection-per-thread convention.
	if cfg.DBConns <= 0 {
		cfg.DBConns = cfg.Workers
	}
	if cfg.MVCC {
		cfg.DB.SetMVCC(true)
	}
	s.tier = dbtier.New(cfg.DB, dbtier.Options{
		Replicas: cfg.Replicas,
		Conns:    cfg.DBConns,
		Clock:    cfg.Clock,
		Scale:    cfg.Scale,
		Async:    cfg.ReplAsync,
	})
	dbc := s.tier.Conn()
	s.workers = stage.New(stage.Config[*Conn]{
		Name:     "baseline",
		Workers:  cfg.Workers,
		QueueCap: cfg.QueueCap,
		Work:     func(c *Conn) { s.serveConn(c, dbc) },
	})
	s.graph = stage.NewGraph().Add(s.workers)
	return s, nil
}

// Serve accepts connections on l until Stop. It blocks; run it in a
// goroutine. The error is nil after a clean Stop.
func (s *Baseline) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		_ = l.Close()
		return nil
	}
	s.listener = l
	s.graph.Start()
	s.mu.Unlock()
	return s.tr.Accept(l, func(c *Conn) error {
		err := s.workers.Submit(c)
		if errors.Is(err, stage.ErrShed) {
			c.Close() // a full accept queue turns the connection away
			return nil
		}
		return err
	})
}

// Stop closes the listener and drains the worker pool. It is safe to
// call before, during, or after Serve, and is idempotent.
func (s *Baseline) Stop() {
	s.mu.Lock()
	s.stopped = true
	l := s.listener
	s.mu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	s.stopOnce.Do(func() {
		s.graph.Stop()
		s.tier.Close()
	})
}

// Tier exposes the database tier for the db.* probes.
func (s *Baseline) Tier() *dbtier.Tier { return s.tier }

// QueueLen reports the single request queue's length — the series plotted
// in Figure 7.
func (s *Baseline) QueueLen() int { return s.workers.Depth() }

// Served reports the number of completed requests.
func (s *Baseline) Served() int64 { return s.tr.Served() }

// Graph exposes the (one-stage) graph for stats snapshots.
func (s *Baseline) Graph() *stage.Graph { return s.graph }

// serveConn handles every request on one connection (keep-alive loop),
// all on the same worker with the same database connection.
func (s *Baseline) serveConn(c *Conn, dbc DBConn) {
	defer c.Close()
	for {
		req, err := c.ReadRequest()
		if err != nil {
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
		res, err := handler(&Request{Path: req.Line.Path, Query: req.Query, Header: req.Header, DB: dbc})
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
