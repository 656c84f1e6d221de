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
// Each pool is a stage.Stage: the pool's thread count as slots, plus a
// FIFO line of requests waiting for one. Each connection is served on its
// own goroutine, which waits for a request's bytes holding no slot, then
// walks the figure in order — the header slot, then a static slot or a
// general/lengthy slot, then (for deferred pages) a rendering slot —
// holding each only for that pool's work. The connection mechanics
// (accept loop, buffered conns, two-phase parsing, replies, cost
// charging) come from the shared server.Transport. Database connections
// are used only on general/lengthy slots, so they are never held while
// templates render or static files are served. Dynamic
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

	// IdleTimeout bounds how long a connection waits for its next
	// request's bytes, and for the rest of a request line once they come
	// (wall time), like CherryPy's socket timeout. Defaults to 10 s.
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

// Server is the staged (modified) web server.
type Server struct {
	cfg Config
	tr  *server.Transport
	dbc server.DBConn

	// The five pools. A request holds a slot only while its goroutine does
	// that pool's work; stages take no items, so their type is struct{}.
	graph   *stage.Graph
	header  *stage.Stage[struct{}]
	static  *stage.Stage[struct{}]
	general *stage.Stage[struct{}]
	lengthy *stage.Stage[struct{}]
	render  *stage.Stage[struct{}]

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
	// conns holds every open connection, so that Stop can abort the ones
	// waiting for their next request instead of waiting out their idle
	// timeout; connWG counts their goroutines.
	conns  map[*server.Conn]struct{}
	connWG sync.WaitGroup
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
	s := &Server{cfg: cfg, conns: make(map[*server.Conn]struct{})}
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
	s.dbc = s.tier.Conn()

	pool := func(name string, workers int) *stage.Stage[struct{}] {
		return stage.New(stage.Config[struct{}]{Name: name, Workers: workers, QueueCap: cfg.QueueCap})
	}
	s.header = pool(StageHeader, cfg.HeaderWorkers)
	s.static = pool(StageStatic, cfg.StaticWorkers)
	s.general = pool(StageGeneral, cfg.GeneralWorkers)
	s.lengthy = pool(StageLengthy, cfg.LengthyWorkers)
	s.render = pool(StageRender, cfg.RenderWorkers)
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

// Serve accepts connections on l until Stop, serving each on its own
// goroutine. It blocks; run it in a goroutine. The error is nil after a
// clean Stop.
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
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.stopped {
			return stage.ErrClosed
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		go s.serveConn(c)
		return nil
	})
}

// Stop shuts the server down. It is safe to call before, during, or
// after Serve, and is idempotent. Every open connection is aborted:
// one waiting for its next request ends at once rather than aging out
// its idle timeout, and one whose request has been read finishes every
// remaining stage first. Stop returns once no connection goroutine is
// left.
func (s *Server) Stop() {
	s.mu.Lock()
	s.stopped = true
	l := s.listener
	ctl := s.controller
	s.controller = nil
	for c := range s.conns {
		c.Abort()
	}
	s.mu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	if ctl != nil {
		ctl.Stop()
	}
	s.stopOnce.Do(func() {
		s.connWG.Wait()
		s.graph.Stop()
		s.tier.Close()
	})
}

// ---- the pipeline ----

// serveConn serves every request on one connection. Between requests it
// waits for the next request's first byte holding no slot, as CherryPy's
// listener does with select/poll: pool workers never camp on idle
// sockets, so a handful of silent or keep-alive clients cannot pin a
// pool. EOF, the idle timeout or an Abort from Stop end the connection.
func (s *Server) serveConn(c *server.Conn) {
	for c.AwaitReadable() == nil && s.serveRequest(c) {
	}
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
	s.connWG.Done()
}

// serveRequest walks one request through Figure 5, holding each pool's
// slot only for that pool's work, and reports whether the connection
// stays open for another request.
func (s *Server) serveRequest(c *server.Conn) bool {
	if s.header.Enter() != nil {
		return false
	}
	line, req, next := s.parseHeader(c)
	s.header.Leave()
	switch next {
	case nil:
		return false
	case s.static:
		return s.serveStatic(c, line)
	default:
		return s.serveDynamic(c, next, req)
	}
}

// parseHeader is the header-parsing pool's work: phase-one parse,
// static/dynamic classification, and (for dynamics) the full
// header+query parse plus the Table 1 dispatch decision. It returns the
// pool the request goes to next, or nil when the connection is done.
func (s *Server) parseHeader(c *server.Conn) (httpwire.RequestLine, *httpwire.Request, *stage.Stage[struct{}]) {
	line, err := c.ReadRequestLine()
	if err != nil {
		// EOF between keep-alive requests is normal connection teardown.
		return line, nil, nil
	}
	// Static requests carry their unparsed header tail to the static
	// pool; "this is not an issue for static requests, so we let the
	// threads which actually serve those static requests parse their
	// headers" (Section 3.2).
	if line.IsStatic() {
		return line, nil, s.static
	}
	// Dynamic: parse everything here so a thread with an open database
	// connection never spends time on anything but generating data.
	req, err := c.FinishRequest(line)
	if err != nil {
		_ = c.WriteError(httpwire.StatusBadRequest, "bad request")
		return line, nil, nil
	}
	if s.dispatcher.Choose(line.Path) == sched.Lengthy {
		return line, req, s.lengthy
	}
	return line, req, s.general
}

// serveStatic parses the header tail and serves the file on a static
// pool slot.
func (s *Server) serveStatic(c *server.Conn, line httpwire.RequestLine) bool {
	if s.static.Enter() != nil {
		return false
	}
	defer s.static.Leave()
	hdr, err := c.ReadHeaders()
	if err != nil {
		return false
	}
	req := httpwire.Request{Line: line, Header: hdr}
	return s.tr.ServeStatic(c, s.cfg.App, line.Path, req.KeepAlive())
}

// serveDynamic runs the page handler on a slot of the dispatched pool,
// whose statements go through the database tier, measures
// data-generation time on the injected clock, and takes deferred results
// on to a rendering slot.
func (s *Server) serveDynamic(c *server.Conn, pool *stage.Stage[struct{}], req *httpwire.Request) bool {
	if pool.Enter() != nil {
		return false
	}
	res, keep, direct := s.generate(c, req)
	pool.Leave()
	if direct {
		return keep
	}
	if s.render.Enter() != nil {
		return false
	}
	defer s.render.Leave()
	// Rendered on a slot with no database connection, which is charged
	// the render cost.
	key := req.Line.Path
	return s.tr.FinishDynamic(c, s.cfg.App, key, s.classOf(key), res, req.KeepAlive())
}

// generate is the dynamic pools' work. It returns a deferred result for
// the rendering pool, or direct = true once it has replied itself (404,
// 500, or a pre-rendered page) with keep saying whether the connection
// stays open.
func (s *Server) generate(c *server.Conn, req *httpwire.Request) (res *server.Result, keep, direct bool) {
	key := req.Line.Path
	handler, ok := s.cfg.App.Handler(key)
	if !ok {
		return nil, s.tr.DirectReply(c, key, s.classOf(key),
			httpwire.StatusNotFound, []byte("not found"), "text/plain; charset=utf-8", false), true
	}
	start := s.cfg.Clock.Now()
	res, err := handler(&server.Request{
		Path:   key,
		Query:  req.Query,
		Header: req.Header,
		DB:     s.dbc,
	})
	if err != nil {
		return nil, s.tr.DirectReply(c, key, s.classOf(key),
			httpwire.StatusInternalServerError, []byte("internal error"), "text/plain; charset=utf-8", false), true
	}
	// The paper's measurement: "from when the request is acquired through
	// when its unrendered template is placed in the template rendering
	// queue" — an accurate database-time figure because rendering happens
	// elsewhere. The request joins the render line as soon as this
	// returns.
	s.dispatcher.Classifier().Record(key, s.cfg.Scale.Paper(s.cfg.Clock.Since(start)))
	if res.Deferred() {
		return res, false, false
	}
	// Backward compatibility (Section 3.1): a handler that returns an
	// already-rendered string is served directly by the dynamic worker —
	// the scheduling benefit is lost for such pages, as the paper notes,
	// and the render cost is charged here on the connection-holding
	// worker.
	return nil, s.tr.FinishDynamic(c, s.cfg.App, key, s.classOf(key), res, req.KeepAlive()), true
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

// String describes the server's pool configuration.
func (s *Server) String() string {
	return fmt.Sprintf("staged{header:%d static:%d general:%d lengthy:%d render:%d}",
		s.cfg.HeaderWorkers, s.cfg.StaticWorkers, s.cfg.GeneralWorkers,
		s.cfg.LengthyWorkers, s.cfg.RenderWorkers)
}
