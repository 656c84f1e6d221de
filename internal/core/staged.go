// Package core implements the paper's primary contribution: the modified
// multithreaded web server whose requests are served by different threads
// in multiple thread pools.
//
// The topology is exactly Figure 5 of the paper — a single listener and
// five pools:
//
//	listener -> header parsing -> static requests
//	                           -> general dynamic requests  -> template
//	                           -> lengthy dynamic requests  ->  rendering
//
// It is expressed as a stage.Graph over the generic stage runtime; the
// connection mechanics (accept loop, buffered conns, two-phase parsing,
// replies, cost charging) come from the shared server.Transport. Database
// connections are bound only to the dynamic-request workers, so they are
// never idle while templates render or static files are served. Dynamic
// requests are classified quick/lengthy by tracked mean data-generation
// time (sched.Classifier, 2 s cutoff), dispatched per Table 1, and
// protected from head-of-line blocking by the t_reserve feedback
// controller (sched.ReserveController, updated once per paper second).
package core

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/dbtier"
	"stagedweb/internal/httpwire"
	"stagedweb/internal/metrics"
	"stagedweb/internal/sched"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/stage"
)

// Stage names, which key QueueLens and Graph lookups.
const (
	StageHeader  = "header"
	StageStatic  = "static"
	StageGeneral = "general"
	StageLengthy = "lengthy"
	StageRender  = "render"
)

// Config configures the staged server. Topology — pool sizes, queue
// bounds, the classifier cutoff, and the reserve policy — is pure
// configuration: harness variants (pool-size sweeps, the no-reserve
// ablation) need no new server code.
type Config struct {
	// App is the application to serve.
	App server.App
	// DB is the primary database. The server fronts it with a dbtier
	// (Replicas backends, DBConns pooled connections per backend), and
	// only dynamic workers execute statements through it — rendering and
	// static pools never touch a connection, the paper's point.
	DB *sqldb.DB
	// Replicas is the total number of database backends (primary
	// included); values below 1 mean 1 — no replication.
	Replicas int
	// DBConns is the connection pool size per backend. It defaults to
	// GeneralWorkers + LengthyWorkers, the dynamic-worker budget, so by
	// default acquisition never waits.
	DBConns int
	// MVCC switches the primary's storage engine to snapshot reads plus
	// optimistic first-writer-wins writes. False keeps per-table
	// reader-writer locks, the paper's concurrency model.
	MVCC bool
	// ReplAsync ships the replication log to replicas asynchronously:
	// writers stop waiting for replica apply and replicas serve
	// bounded-stale reads. False keeps the synchronous contract — every
	// replica has applied a write before Exec returns.
	ReplAsync bool

	// Pool sizes. The paper sizes the general pool at four times the
	// lengthy pool. Zero values take the defaults below.
	HeaderWorkers  int // default 8
	StaticWorkers  int // default 16
	GeneralWorkers int // default 64
	LengthyWorkers int // default 16
	RenderWorkers  int // default 16

	// QueueCap bounds every stage queue. Defaults to 4096.
	QueueCap int

	// Cutoff is the quick/lengthy boundary in paper time (default 2 s,
	// the paper's value).
	Cutoff time.Duration
	// MinReserve is the configured minimum t_reserve (default 20, the
	// value used in the paper's Table 2).
	MinReserve int
	// NoReserve disables the t_reserve feedback controller entirely (the
	// ablation variant): t_reserve is pinned to zero and lengthy requests
	// enter the general pool whenever it has any spare worker, so quick
	// pages lose their protection.
	NoReserve bool
	// ControllerInterval is the t_reserve update period in paper time
	// (default 1 s, per the paper).
	ControllerInterval time.Duration

	// Clock and Scale drive the controller loop and convert measured
	// wall durations into paper time for classification.
	Clock clock.Clock
	Scale clock.Timescale

	// IdleTimeout bounds how long a header-parsing worker waits for the
	// next request line on a connection (wall time), like CherryPy's
	// socket timeout. Defaults to 10 s.
	IdleTimeout time.Duration

	// Cost models render/static worker time (paper time); zero charges
	// nothing. In this server the costs land on the rendering and static
	// pools, which hold no database connections — the paper's point.
	Cost server.WorkCost

	// OnComplete, when set, receives a CompletionEvent per request.
	OnComplete func(server.CompletionEvent)
}

func (c *Config) fillDefaults() {
	if c.HeaderWorkers <= 0 {
		c.HeaderWorkers = 8
	}
	if c.StaticWorkers <= 0 {
		c.StaticWorkers = 16
	}
	if c.GeneralWorkers <= 0 {
		c.GeneralWorkers = 64
	}
	if c.LengthyWorkers <= 0 {
		c.LengthyWorkers = 16
	}
	if c.RenderWorkers <= 0 {
		c.RenderWorkers = 16
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4096
	}
	if c.Cutoff <= 0 {
		c.Cutoff = sched.DefaultCutoff
	}
	if c.MinReserve <= 0 {
		c.MinReserve = 20
	}
	if c.ControllerInterval <= 0 {
		c.ControllerInterval = time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 10 * time.Second
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.Scale == 0 {
		c.Scale = clock.RealTime
	}
}

// task is a connection's current request on its way through the pools.
// One is made when the connection is accepted and reused for every
// request on it — a connection has one request in flight — so a hop from
// pool to pool allocates nothing.
type task struct {
	c *server.Conn
	// line is the phase-one parse; a static request carries nothing else
	// to the static pool. line.Path is the page key.
	line httpwire.RequestLine
	// req is the fully header-parsed dynamic request.
	req *httpwire.Request
	// result is an unrendered template plus its data, on its way to the
	// rendering pool.
	result *server.Result
	// park is awaitNextRequest bound to this task: made once, so that
	// starting the park goroutine after each reply allocates no closure.
	park func()
}

// Server is the staged (modified) web server.
type Server struct {
	cfg Config
	tr  *server.Transport

	graph   *stage.Graph
	header  *stage.Stage[*task]
	static  *stage.Stage[*task]
	general *stage.Stage[*task]
	lengthy *stage.Stage[*task]
	render  *stage.Stage[*task]

	dispatcher *sched.Dispatcher
	controller *sched.Controller
	tier       *dbtier.Tier

	// Per-target dispatch decision counts, fed by the dispatcher hook.
	dispatchedGeneral metrics.Counter
	dispatchedLengthy metrics.Counter

	mu       sync.Mutex
	listener net.Listener
	stopped  bool
	stopOnce sync.Once
	// parked tracks keep-alive connections awaiting their next request;
	// Stop aborts them so shutdown never waits out the idle timeout.
	parked map[*task]struct{}
	parkWG sync.WaitGroup
}

// New validates the configuration and builds the staged server.
func New(cfg Config) (*Server, error) {
	if cfg.App == nil {
		return nil, errors.New("core: nil App")
	}
	if cfg.DB == nil {
		return nil, errors.New("core: nil DB")
	}
	cfg.fillDefaults()
	s := &Server{cfg: cfg, parked: make(map[*task]struct{})}
	s.tr = server.NewTransport(server.TransportConfig{
		IdleTimeout: cfg.IdleTimeout,
		Clock:       cfg.Clock,
		Scale:       cfg.Scale,
		Cost:        cfg.Cost,
		OnComplete:  cfg.OnComplete,
	})

	cls := sched.NewClassifier(cfg.Cutoff)
	var rc *sched.ReserveController
	if cfg.NoReserve {
		// t_reserve pinned at zero: Table 1 degenerates to "lengthy goes
		// to the general pool whenever it has a spare worker".
		rc = sched.NewReserveController(0)
	} else {
		rc = sched.NewReserveController(cfg.MinReserve)
		// Keep the controller in its stable region: reserving more than
		// 3/4 of the general pool would let the grow rule run away (see
		// sched.NewReserveController).
		if maxR := cfg.GeneralWorkers * 3 / 4; maxR > cfg.MinReserve {
			rc.SetMax(maxR)
		}
	}

	s.header = stage.New(stage.Config[*task]{
		Name: StageHeader, Workers: cfg.HeaderWorkers, QueueCap: cfg.QueueCap,
		Work: s.headerWork,
	})
	s.static = stage.New(stage.Config[*task]{
		Name: StageStatic, Workers: cfg.StaticWorkers, QueueCap: cfg.QueueCap,
		Work: s.staticWork,
	})

	// The database tier serves dynamic workers only: by default one
	// backend with one pooled connection per dynamic worker, so their
	// statements never wait; with replicas, reads route round-robin and
	// writes fan out synchronously.
	if cfg.DBConns <= 0 {
		cfg.DBConns = cfg.GeneralWorkers + cfg.LengthyWorkers
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
	s.general = stage.New(stage.Config[*task]{
		Name: StageGeneral, Workers: cfg.GeneralWorkers, QueueCap: cfg.QueueCap,
		Work: func(t *task) { s.dynamicWork(t, dbc) },
	})
	s.lengthy = stage.New(stage.Config[*task]{
		Name: StageLengthy, Workers: cfg.LengthyWorkers, QueueCap: cfg.QueueCap,
		Work: func(t *task) { s.dynamicWork(t, dbc) },
	})
	s.render = stage.New(stage.Config[*task]{
		Name: StageRender, Workers: cfg.RenderWorkers, QueueCap: cfg.QueueCap,
		Work: s.renderWork,
	})

	// Stop drains in flow order: header first, render last.
	s.graph = stage.NewGraph().Add(s.header, s.static, s.general, s.lengthy, s.render)

	// t_spare is the general pool's live spare-worker count.
	s.dispatcher = sched.NewDispatcher(cls, rc, s.general.Spare)
	s.dispatcher.SetHook(func(_ string, target sched.Target) {
		if target == sched.Lengthy {
			s.dispatchedLengthy.Inc()
		} else {
			s.dispatchedGeneral.Inc()
		}
	})
	return s, nil
}

// Serve accepts connections on l until Stop. It blocks; run it in a
// goroutine. The error is nil after a clean Stop.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		_ = l.Close()
		return nil
	}
	s.listener = l
	s.graph.Start()
	if !s.cfg.NoReserve {
		s.controller = sched.StartController(
			s.cfg.Clock,
			s.cfg.Scale.Wall(s.cfg.ControllerInterval),
			s.dispatcher.ReserveController(),
			s.general.Spare,
		)
	}
	s.mu.Unlock()
	return s.tr.Accept(l, func(c *server.Conn) error {
		t := &task{c: c}
		t.park = func() { s.awaitNextRequest(t) }
		return s.header.Submit(t)
	})
}

// Stop shuts the pipeline down in flow order, draining each stage. It is
// safe to call before, during, or after Serve, and is idempotent. Parked
// keep-alive connections are aborted rather than left to age out their
// idle timeout, so shutdown is prompt and leaves no park goroutines
// behind.
func (s *Server) Stop() {
	s.mu.Lock()
	s.stopped = true
	l := s.listener
	ctl := s.controller
	s.controller = nil
	for t := range s.parked {
		t.c.Abort()
	}
	s.mu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	if ctl != nil {
		ctl.Stop()
	}
	s.stopOnce.Do(func() {
		s.graph.Stop()
		s.parkWG.Wait()
		s.tier.Close()
	})
}

// ---- pipeline stages ----

// headerWork is the header-parsing pool: phase-one parse, static/dynamic
// classification, and (for dynamics) the full header+query parse plus the
// Table 1 dispatch decision.
func (s *Server) headerWork(t *task) {
	var err error
	if t.line, err = t.c.ReadRequestLine(); err != nil {
		// EOF between keep-alive requests is normal connection teardown.
		t.c.Close()
		return
	}
	// Static requests carry their unparsed header tail to the static
	// pool; "this is not an issue for static requests, so we let the
	// threads which actually serve those static requests parse their
	// headers" (Section 3.2).
	target := s.static
	if !t.line.IsStatic() {
		// Dynamic: parse everything here so a thread with an open database
		// connection never spends time on anything but generating data.
		if t.req, err = t.c.FinishRequest(t.line); err != nil {
			_ = t.c.WriteError(httpwire.StatusBadRequest, "bad request")
			t.c.Close()
			return
		}
		target = s.general
		if s.dispatcher.Choose(t.line.Path) == sched.Lengthy {
			target = s.lengthy
		}
	}
	if target.Submit(t) != nil {
		t.c.Close()
	}
}

// staticWork parses the header tail and serves the file.
func (s *Server) staticWork(t *task) {
	hdr, err := t.c.ReadHeaders()
	if err != nil {
		t.c.Close()
		return
	}
	req := httpwire.Request{Line: t.line, Header: hdr}
	s.recycle(t, s.tr.ServeStatic(t.c, s.cfg.App, t.line.Path, req.KeepAlive()))
}

// dynamicWork runs the page handler on a worker whose statements go
// through the database tier, measures data-generation time on the
// injected clock, and hands deferred results to the rendering pool.
func (s *Server) dynamicWork(t *task, dbc server.DBConn) {
	key := t.line.Path
	handler, ok := s.cfg.App.Handler(key)
	if !ok {
		s.recycle(t, s.tr.DirectReply(t.c, key, s.classOf(key),
			httpwire.StatusNotFound, []byte("not found"), "text/plain; charset=utf-8", false))
		return
	}
	start := s.cfg.Clock.Now()
	res, err := handler(&server.Request{
		Path:   key,
		Query:  t.req.Query,
		Header: t.req.Header,
		DB:     dbc,
	})
	if err != nil {
		s.recycle(t, s.tr.DirectReply(t.c, key, s.classOf(key),
			httpwire.StatusInternalServerError, []byte("internal error"), "text/plain; charset=utf-8", false))
		return
	}

	if res.Deferred() {
		// The paper's measurement: "from when the request is acquired
		// through when its unrendered template is placed in the template
		// rendering queue" — an accurate database-time figure because
		// rendering happens elsewhere. (The render stage owns t from the
		// Submit on.)
		t.result = res
		putErr := s.render.Submit(t)
		s.dispatcher.Classifier().Record(key, s.cfg.Scale.Paper(s.cfg.Clock.Since(start)))
		if putErr != nil {
			t.c.Close()
		}
		return
	}

	// Backward compatibility (Section 3.1): a handler that returns an
	// already-rendered string is served directly by the dynamic worker —
	// the scheduling benefit is lost for such pages, as the paper notes,
	// and the render cost is charged here on the connection-holding
	// worker.
	s.dispatcher.Classifier().Record(key, s.cfg.Scale.Paper(s.cfg.Clock.Since(start)))
	s.recycle(t, s.tr.FinishDynamic(t.c, s.cfg.App, key, s.classOf(key), res, t.req.KeepAlive()))
}

// renderWork renders the deferred template on a worker with no database
// connection, charges the render cost there, and transmits.
func (s *Server) renderWork(t *task) {
	key := t.line.Path
	s.recycle(t, s.tr.FinishDynamic(t.c, s.cfg.App, key, s.classOf(key), t.result, t.req.KeepAlive()))
}

// recycle parks a keep-alive connection until its next request's first
// byte arrives, then re-enqueues it to the header-parsing pool; non-keep-
// alive (or failed) connections close. The park goroutine plays the role
// of the OS readiness notification (select/poll in CherryPy's listener):
// header workers must never camp on idle sockets, or a handful of
// keep-alive clients would pin the whole pool.
func (s *Server) recycle(t *task, keep bool) {
	t.req, t.result = nil, nil
	if !keep {
		t.c.Close()
		return
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		t.c.Close()
		return
	}
	s.parked[t] = struct{}{}
	s.parkWG.Add(1)
	s.mu.Unlock()
	go t.park()
}

// awaitNextRequest blocks until the connection has readable data (the
// next pipelined request), then hands it back to the header stage. EOF,
// timeout, an Abort from Stop, or a full/closed queue close the
// connection; full-queue drops are counted as shed on the header stage.
func (s *Server) awaitNextRequest(t *task) {
	defer s.parkWG.Done()
	err := t.c.AwaitReadable()
	s.mu.Lock()
	delete(s.parked, t)
	stopped := s.stopped
	s.mu.Unlock()
	if err != nil || stopped {
		t.c.Close()
		return
	}
	if s.header.Offer(t) != nil {
		t.c.Close()
	}
}

func (s *Server) classOf(key string) server.Class {
	if s.dispatcher.Classifier().Lengthy(key) {
		return server.ClassLengthy
	}
	return server.ClassQuick
}

// ---- introspection for the harness and experiments ----

// Graph exposes the stage graph for uniform stats snapshots.
func (s *Server) Graph() *stage.Graph { return s.graph }

// Tier exposes the database tier for the db.* probes.
func (s *Server) Tier() *dbtier.Tier { return s.tier }

// QueueLens reports the current length of every stage queue, keyed by
// stage name. The general and lengthy entries are Figures 8(a) and 8(b).
func (s *Server) QueueLens() map[string]int { return s.graph.Depths() }

// GeneralQueueLen reports the general dynamic queue length (Figure 8a).
func (s *Server) GeneralQueueLen() int { return s.general.Depth() }

// LengthyQueueLen reports the lengthy dynamic queue length (Figure 8b).
func (s *Server) LengthyQueueLen() int { return s.lengthy.Depth() }

// Spare reports the general pool's current spare workers (t_spare).
func (s *Server) Spare() int { return s.general.Spare() }

// Reserve reports the controller's current t_reserve.
func (s *Server) Reserve() int { return s.dispatcher.ReserveController().Reserve() }

// Classifier exposes the page classifier (for diagnostics and tests).
func (s *Server) Classifier() *sched.Classifier { return s.dispatcher.Classifier() }

// DispatchCounts reports Table 1 decisions by target pool, fed by the
// dispatcher hook.
func (s *Server) DispatchCounts() (general, lengthy int64) {
	return s.dispatchedGeneral.Value(), s.dispatchedLengthy.Value()
}

// Served reports the number of completed requests.
func (s *Server) Served() int64 { return s.tr.Served() }

// Shed reports keep-alive connections dropped due to a full header queue.
func (s *Server) Shed() int64 { return s.header.ShedCount() }

// String describes the server's pool configuration.
func (s *Server) String() string {
	return fmt.Sprintf("staged{header:%d static:%d general:%d lengthy:%d render:%d}",
		s.cfg.HeaderWorkers, s.cfg.StaticWorkers, s.cfg.GeneralWorkers,
		s.cfg.LengthyWorkers, s.cfg.RenderWorkers)
}
