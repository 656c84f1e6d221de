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
// (the serve/stop lifecycle, buffered conns, two-phase parsing, replies,
// cost charging) come from the shared server.Transport. Database connections
// are used only on general/lengthy slots, so they are never held while
// templates render or static files are served. Dynamic
// requests are classified quick/lengthy by tracked mean data-generation
// time (sched.Classifier, 2 s cutoff), dispatched per Table 1, and
// protected from head-of-line blocking by the t_reserve feedback
// controller (sched.ReserveController, updated once per paper second).
//
// Table 1 is applied at arrival and again at release: a general slot
// freed while the general line is empty goes to the newest request in the
// lengthy line when t_spare after the release exceeds t_reserve
// (stage.Stage.LendTo, sched.Dispatcher.Overflow), and otherwise is
// freed. The lengthy pool keeps serving its own line oldest-first. The
// controller samples t_spare with the general slots held by requests
// Table 1 classified lengthy counted as spare: that is capacity the
// reserve already gave up, and read as busy it would look like a
// quick-traffic spike.
package core

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/httpwire"
	"stagedweb/internal/sched"
	"stagedweb/internal/server"
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
// ablation, which is MinReserve 0) need no new server code.
type Config struct {
	// App is the application to serve.
	App server.App
	// DB is the database connection the dynamic workers execute their
	// statements through — in the built-in variants a dbtier connection
	// with one pooled engine connection per dynamic worker by default.
	// Rendering and static pools never touch it, the paper's point.
	DB server.DBConn

	// Pool sizes, each positive. The paper sizes the general pool at four
	// times the lengthy pool; the modified variant defaults them to
	// 8/16/64/16/16.
	HeaderWorkers  int
	StaticWorkers  int
	GeneralWorkers int
	LengthyWorkers int
	RenderWorkers  int

	// Cutoff is the quick/lengthy boundary in paper time, positive (the
	// paper's is sched.DefaultCutoff, 2 s).
	Cutoff time.Duration
	// MinReserve is the minimum t_reserve, not negative (the paper's
	// Table 2 uses 20); one above GeneralWorkers reserves the whole
	// general pool, as GeneralWorkers does. At 0 the controller never
	// leaves 0: lengthy requests enter the general pool whenever it has
	// a spare worker, every general slot freed with the general line
	// empty goes to a waiting lengthy request, and quick pages lose
	// their protection.
	MinReserve int

	// Clock and Scale drive the controller loop and convert measured
	// wall durations into paper time for classification.
	Clock clock.Clock
	Scale clock.Timescale

	// Cost models render/static worker time (paper time); zero charges
	// nothing. In this server the costs land on the rendering and static
	// pools, which hold no database connections — the paper's point.
	Cost server.WorkCost

	// OnComplete, when set, receives a CompletionEvent per request.
	OnComplete func(server.CompletionEvent)
}

// controllerInterval is the t_reserve update period in paper time, per
// the paper.
const controllerInterval = time.Second

func (c *Config) fillDefaults() {
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

	// The five pools. A request holds a slot only while its goroutine does
	// that pool's work; stages take no items, so their type is struct{}.
	graph   *stage.Graph
	header  *stage.Stage[struct{}]
	static  *stage.Stage[struct{}]
	general *stage.Stage[struct{}]
	lengthy *stage.Stage[struct{}]
	render  *stage.Stage[struct{}]

	dispatcher *sched.Dispatcher
	// lengthyOnGeneral counts the general slots held by requests Table 1
	// classified lengthy, sent there at arrival or lent one at release.
	lengthyOnGeneral atomic.Int64
}

// New validates the configuration and builds the staged server.
func New(cfg Config) (*Server, error) {
	if cfg.App == nil {
		return nil, errors.New("core: nil App")
	}
	if cfg.DB == nil {
		return nil, errors.New("core: nil DB")
	}
	for _, n := range []int{cfg.HeaderWorkers, cfg.StaticWorkers, cfg.GeneralWorkers, cfg.LengthyWorkers, cfg.RenderWorkers} {
		if n <= 0 {
			return nil, fmt.Errorf("core: invalid pool size %d", n)
		}
	}
	if cfg.Cutoff <= 0 {
		return nil, fmt.Errorf("core: invalid cutoff %v", cfg.Cutoff)
	}
	if cfg.MinReserve < 0 {
		return nil, fmt.Errorf("core: negative minimum reserve %d", cfg.MinReserve)
	}
	cfg.fillDefaults()
	s := &Server{cfg: cfg}
	s.tr = server.NewTransport(server.TransportConfig{
		Clock:      cfg.Clock,
		Scale:      cfg.Scale,
		Cost:       cfg.Cost,
		OnComplete: cfg.OnComplete,
	})

	cls := sched.NewClassifier(cfg.Cutoff)
	// Keep the controller in its stable region (see
	// sched.NewReserveController): t_reserve never exceeds the general
	// pool, the largest t_spare there is, nor 3/4 of it where the minimum
	// is below that.
	minR := min(cfg.MinReserve, cfg.GeneralWorkers)
	rc := sched.NewReserveController(minR)
	maxR := cfg.GeneralWorkers
	if q := cfg.GeneralWorkers * 3 / 4; q > minR {
		maxR = q
	}
	rc.SetMax(maxR)

	pool := func(name string, workers int) *stage.Stage[struct{}] {
		return stage.New(stage.Config[struct{}]{Name: name, Workers: workers})
	}
	s.header = pool(StageHeader, cfg.HeaderWorkers)
	s.static = pool(StageStatic, cfg.StaticWorkers)
	s.general = pool(StageGeneral, cfg.GeneralWorkers)
	s.lengthy = pool(StageLengthy, cfg.LengthyWorkers)
	s.render = pool(StageRender, cfg.RenderWorkers)
	s.graph = stage.NewGraph().Add(s.header, s.static, s.general, s.lengthy, s.render)

	// t_spare is the general pool's live spare-worker count.
	s.dispatcher = sched.NewDispatcher(cls, rc, s.general.Spare)
	// Table 1 at release: a freed general slot goes to the newest lengthy
	// waiter while t_spare after the release exceeds t_reserve.
	s.general.LendTo(s.lengthy, s.dispatcher.Overflow)
	return s, nil
}

// Serve accepts connections on l until Stop, serving each on its own
// goroutine, and runs the t_reserve controller for as long as it
// accepts. It blocks; run it in a goroutine. The error is nil after a
// clean Stop.
func (s *Server) Serve(l net.Listener) error {
	rc := s.dispatcher.ReserveController()
	stopController := clock.Every(s.cfg.Clock, s.cfg.Scale.Wall(controllerInterval), func(time.Time) bool {
		rc.Update(s.controllerSpare())
		return true
	})
	defer stopController()
	return s.tr.Serve(l, func(c *server.Conn) { go s.serveConn(c) })
}

// Stop shuts the server down. It is safe to call before, during, or
// after Serve, and is idempotent. Every open connection is aborted (see
// server.Transport.Stop): one waiting for its next request ends at
// once rather than aging out its idle timeout, and one whose request has
// been read finishes every remaining stage first. The exception is a
// connection whose first request has not arrived: it may still deliver
// it, so a client that dialled and sent nothing holds Stop for up to the
// idle timeout. Stop returns once no connection goroutine is left.
func (s *Server) Stop() {
	s.tr.Stop()
	s.graph.Stop()
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
	c.Close()
}

// serveRequest walks one request through Figure 5, holding each pool's
// slot only for that pool's work, and reports whether the connection
// stays open for another request.
func (s *Server) serveRequest(c *server.Conn) bool {
	if _, err := s.header.Enter(); err != nil {
		return false
	}
	line, req, next, lengthy := s.parseHeader(c)
	s.header.Leave()
	switch next {
	case nil:
		return false
	case s.static:
		return s.serveStatic(c, line)
	default:
		return s.serveDynamic(c, next, lengthy, req)
	}
}

// parseHeader is the header-parsing pool's work: phase-one parse,
// static/dynamic classification, and (for dynamics) the full
// header+query parse plus the Table 1 dispatch decision. It returns the
// pool the request goes to next, or nil when the connection is done, and
// whether Table 1 classified a dynamic request lengthy.
func (s *Server) parseHeader(c *server.Conn) (httpwire.RequestLine, *httpwire.Request, *stage.Stage[struct{}], bool) {
	line, err := c.ReadRequestLine()
	if err != nil {
		// EOF between keep-alive requests is normal connection teardown.
		return line, nil, nil, false
	}
	// Static requests carry their unparsed header tail to the static
	// pool; "this is not an issue for static requests, so we let the
	// threads which actually serve those static requests parse their
	// headers" (Section 3.2).
	if line.IsStatic() {
		return line, nil, s.static, false
	}
	// Dynamic: parse everything here so a thread with an open database
	// connection never spends time on anything but generating data.
	req, err := c.FinishRequest(line)
	if err != nil {
		_ = c.WriteError(httpwire.StatusBadRequest, "bad request")
		return line, nil, nil, false
	}
	next := s.general
	target, lengthy := s.dispatcher.Choose(line.Path)
	if target == sched.Lengthy {
		next = s.lengthy
	}
	return line, req, next, lengthy
}

// serveStatic parses the header tail and serves the file on a static
// pool slot.
func (s *Server) serveStatic(c *server.Conn, line httpwire.RequestLine) bool {
	if _, err := s.static.Enter(); err != nil {
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

// serveDynamic runs the page handler on a slot of the dispatched pool, or
// on the general slot lent to it, whose statements go through the
// database tier, measures data-generation time on the injected clock,
// and takes deferred results on to a rendering slot.
func (s *Server) serveDynamic(c *server.Conn, pool *stage.Stage[struct{}], lengthy bool, req *httpwire.Request) bool {
	held, err := pool.Enter()
	if err != nil {
		return false
	}
	onGeneral := lengthy && held == s.general
	if onGeneral {
		s.lengthyOnGeneral.Add(1)
	}
	res, keep, direct := s.generate(c, req)
	if onGeneral {
		s.lengthyOnGeneral.Add(-1)
	}
	held.Leave()
	if direct {
		return keep
	}
	if _, err := s.render.Enter(); err != nil {
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
		DB:     s.cfg.DB,
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

// GeneralQueueLen reports the general dynamic queue length (Figure 8a).
func (s *Server) GeneralQueueLen() int { return s.general.Depth() }

// LengthyQueueLen reports the lengthy dynamic queue length (Figure 8b).
func (s *Server) LengthyQueueLen() int { return s.lengthy.Depth() }

// Spare reports the general pool's current spare workers (t_spare).
func (s *Server) Spare() int { return s.general.Spare() }

// controllerSpare is the t_spare the reserve controller samples: the
// general pool's spare slots plus those held by requests Table 1
// classified lengthy.
func (s *Server) controllerSpare() int {
	return s.general.Spare() + int(s.lengthyOnGeneral.Load())
}

// Reserve reports the controller's current t_reserve.
func (s *Server) Reserve() int { return s.dispatcher.ReserveController().Reserve() }

// DispatchCounts reports Table 1 decisions: at arrival by target pool,
// as the dispatcher counts them, and at release the general slots lent
// to lengthy waiters.
func (s *Server) DispatchCounts() (general, lengthy, lent int64) {
	general, lengthy = s.dispatcher.Dispatched()
	return general, lengthy, s.general.Stats().Lent
}

// Served reports the number of completed requests.
func (s *Server) Served() int64 { return s.tr.Served() }

// String describes the server's pool configuration.
func (s *Server) String() string {
	return fmt.Sprintf("staged{header:%d static:%d general:%d lengthy:%d render:%d}",
		s.cfg.HeaderWorkers, s.cfg.StaticWorkers, s.cfg.GeneralWorkers,
		s.cfg.LengthyWorkers, s.cfg.RenderWorkers)
}
