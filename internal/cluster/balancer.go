package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/httpwire"
	"stagedweb/internal/stage"
	"stagedweb/internal/variant"
)

// ErrShardDown is returned by forwards to a shard marked down (fault
// injection) or skipped by an open circuit breaker. Key-less requests
// fail over past it; keyed and fanned-out requests surface it for the
// down shard's slice of the data.
var ErrShardDown = errors.New("cluster: shard down")

// ErrFanoutDeadline marks shards that had not answered a fan-out when
// its paper-time deadline expired — the bounded-wait replacement for
// wedging reply-after-all forever on a dead shard.
var ErrFanoutDeadline = errors.New("cluster: fan-out deadline exceeded")

// Failover defaults, in paper time where durations.
const (
	defaultFanoutDeadline   = 10 * time.Second
	defaultRetries          = 2
	defaultRetryBackoff     = 100 * time.Millisecond
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 10 * time.Second
)

// breaker is one shard's circuit breaker: consecutive forward failures
// open it for a cooldown, during which the shard is skipped. The
// cooldown expiring does not close the breaker — it only makes the
// shard probeable: exactly one request (the CAS winner on trial) is
// let through as the half-open trial. Trial success closes the
// breaker; trial failure re-arms the cooldown. A recovering shard is
// therefore re-admitted by observed probe success, never by timer
// expiry alone.
type breaker struct {
	fails     atomic.Int32
	openUntil atomic.Int64 // clock nanos; 0 = closed
	trial     atomic.Bool  // a half-open trial forward is in flight
}

// job is a client connection's request in flight through the LB stage.
// The connection makes one and reuses it for every request it carries.
type job struct {
	req  httpwire.Request
	dec  Decision
	conn string // the client's Connection choice, written into the relayed reply
}

// badGateway is what the client gets when no shard produced a reply.
var badGateway = []byte("HTTP/1.1 502 Bad Gateway\r\nConnection: close\r\nContent-Length: 12\r\n\r\nbad gateway\n")

// Balancer fronts M shard instances with a consistent-hash LB stage.
// It implements variant.Instance, so the harness serves, samples, and
// stops a sharded cluster exactly like a single server.
type Balancer struct {
	opts   Options
	ring   *Ring
	route  RouteFunc
	shards []variant.Instance
	clk    clock.Clock
	scale  clock.Timescale

	lb    *stage.Stage[struct{}] // forwarding slots; connections take one per request
	graph *stage.Graph

	routed  []atomic.Int64 // per-shard routed counts (fan-outs excluded)
	routeN  atomic.Int64   // total single-shard routed requests
	fanoutN atomic.Int64   // total fanned-out requests
	rr      atomic.Int64   // round-robin cursor for lb=rr

	down      []atomic.Bool // per-shard fault-injected down flags
	breakers  []breaker     // per-shard circuit breakers
	retryN    atomic.Int64  // cumulative forward re-attempts
	breakerN  atomic.Int64  // cumulative breaker opens
	halfOpenN atomic.Int64  // cumulative half-open trial forwards

	mu       sync.Mutex
	listener net.Listener
	shardLs  []net.Listener
	pools    []*backendPool
	started  bool
	stopped  bool
	connWG   sync.WaitGroup
}

var _ variant.Instance = (*Balancer)(nil)

// New builds an unstarted Balancer over the shard instances. The shard
// slice length must match opts.Shards; route decides affinity and
// fan-out per request.
func New(opts Options, shards []variant.Instance, route RouteFunc) (*Balancer, error) {
	if opts.Shards != len(shards) {
		return nil, fmt.Errorf("cluster: %d shard instances for shards=%d", len(shards), opts.Shards)
	}
	if route == nil {
		return nil, fmt.Errorf("cluster: nil route func")
	}
	switch opts.LB {
	case "":
		opts.LB = LBHash
	case LBHash, LBRR:
	default:
		return nil, fmt.Errorf("cluster: unknown lb policy %q (want %s|%s)", opts.LB, LBHash, LBRR)
	}
	if opts.Workers <= 0 {
		opts.Workers = 16
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	if opts.Scale <= 0 {
		opts.Scale = clock.RealTime
	}
	if opts.FanoutDeadline == 0 {
		opts.FanoutDeadline = defaultFanoutDeadline
	}
	if opts.Retries == 0 {
		opts.Retries = defaultRetries
	} else if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = defaultRetryBackoff
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = defaultBreakerThreshold
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = defaultBreakerCooldown
	}
	ring, err := NewRing(opts.Shards, opts.VNodes)
	if err != nil {
		return nil, err
	}
	b := &Balancer{
		opts:     opts,
		ring:     ring,
		route:    route,
		shards:   shards,
		clk:      opts.Clock,
		scale:    opts.Scale,
		routed:   make([]atomic.Int64, opts.Shards),
		down:     make([]atomic.Bool, opts.Shards),
		breakers: make([]breaker, opts.Shards),
	}
	b.lb = stage.New(stage.Config[struct{}]{
		Name:     "lb",
		Workers:  opts.Workers,
		QueueCap: opts.QueueCap,
	})
	b.graph = stage.NewGraph().Add(b.lb)
	return b, nil
}

// Serve boots every shard on its own loopback listener, starts the LB
// stage, and accepts client connections on l until Stop. It blocks; the
// error is nil after a clean Stop.
func (b *Balancer) Serve(l net.Listener) error {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		_ = l.Close()
		return nil
	}
	b.listener = l
	for i, inst := range b.shards {
		sl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.mu.Unlock()
			b.Stop()
			return err
		}
		b.shardLs = append(b.shardLs, sl)
		b.pools = append(b.pools, &backendPool{addr: sl.Addr().String()})
		inst := inst
		go func(i int) { _ = inst.Serve(sl) }(i)
	}
	b.started = true
	b.mu.Unlock()
	b.graph.Start()

	for {
		conn, err := l.Accept()
		if err != nil {
			b.mu.Lock()
			stopped := b.stopped
			b.mu.Unlock()
			if stopped {
				return nil
			}
			return err
		}
		b.connWG.Add(1)
		go func() {
			defer b.connWG.Done()
			b.handleConn(conn)
		}()
	}
}

// Stop shuts the balancer down: no new client connections, the LB stage
// drained, every shard instance stopped, backend pools closed.
// Idempotent, and safe before, during, or after Serve.
func (b *Balancer) Stop() {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return
	}
	b.stopped = true
	l, started := b.listener, b.started
	shardLs, pools := b.shardLs, b.pools
	b.mu.Unlock()

	if l != nil {
		_ = l.Close()
	}
	if started {
		b.graph.Stop()
	}
	b.connWG.Wait()
	// Close the backend pools before stopping the shards: idle pooled
	// keep-alive connections would otherwise pin the shard servers'
	// connection handlers until their idle timeout.
	for _, p := range pools {
		p.close()
	}
	for _, inst := range b.shards {
		inst.Stop()
	}
	for _, sl := range shardLs {
		_ = sl.Close()
	}
}

// Graph exposes the balancer's own stage graph (the LB stage); shard
// instances keep their own graphs.
func (b *Balancer) Graph() *stage.Graph { return b.graph }

// Probes lists the balancer's shard.*/lb.* gauges plus every shard
// probe aggregated (summed) across shards under its original name — so
// a sharded run's Result.Series has the same db.*/queue.*/served.*
// families a single-server run has, now cluster-wide totals.
func (b *Balancer) Probes() []variant.Probe {
	probes := []variant.Probe{
		{Name: ProbeShardRoute, Gauge: func() float64 { return float64(b.routeN.Load()) }},
		{Name: ProbeShardFanout, Gauge: func() float64 { return float64(b.fanoutN.Load()) }},
		{Name: ProbeShardImbalance, Gauge: b.imbalance},
		{Name: ProbeLBWait, Gauge: func() float64 { return float64(b.lb.Depth()) }},
		{Name: ProbeLBRetry, Gauge: func() float64 { return float64(b.retryN.Load()) }},
		{Name: ProbeLBBreaker, Gauge: func() float64 { return float64(b.breakerN.Load()) }},
		{Name: ProbeLBHalfOpen, Gauge: func() float64 { return float64(b.halfOpenN.Load()) }},
	}
	type agg struct {
		name   string
		gauges []func() float64
	}
	var order []*agg
	byName := map[string]*agg{}
	for _, inst := range b.shards {
		for _, p := range inst.Probes() {
			a, ok := byName[p.Name]
			if !ok {
				a = &agg{name: p.Name}
				byName[p.Name] = a
				order = append(order, a)
			}
			a.gauges = append(a.gauges, p.Gauge)
		}
	}
	for _, a := range order {
		gauges := a.gauges
		probes = append(probes, variant.Probe{
			Name: a.name, //lint:allow probenames(aggregated names originate from the shard instances' own registered probe constants)
			Gauge: func() float64 {
				var sum float64
				for _, g := range gauges {
					sum += g()
				}
				return sum
			},
		})
	}
	return probes
}

// imbalance reports max-shard share over the balanced share of routed
// requests: 1.0 is a perfect spread, Shards means one shard took
// everything, 0 means no routed traffic yet.
func (b *Balancer) imbalance() float64 {
	var total, maxN int64
	for i := range b.routed {
		n := b.routed[i].Load()
		total += n
		if n > maxN {
			maxN = n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(maxN) * float64(len(b.routed)) / float64(total)
}

// ---- fault injection surface ----

// Shards reports the number of shard instances fronted.
func (b *Balancer) Shards() int { return len(b.shards) }

// SetShardDown marks shard i down (fault injection): forwards to it
// fail fast with ErrShardDown, its idle pooled connections are reset,
// key-less requests route around it, and cross-shard fan-outs degrade
// to the remaining shards. Marking it up again clears its breaker so
// traffic returns immediately.
func (b *Balancer) SetShardDown(i int, down bool) error {
	if i < 0 || i >= len(b.shards) {
		return fmt.Errorf("cluster: no shard %d", i)
	}
	b.down[i].Store(down)
	if down {
		b.mu.Lock()
		var p *backendPool
		if i < len(b.pools) {
			p = b.pools[i]
		}
		b.mu.Unlock()
		if p != nil {
			p.reset()
		}
		return nil
	}
	b.breakers[i].fails.Store(0)
	b.breakers[i].openUntil.Store(0)
	b.breakers[i].trial.Store(false)
	return nil
}

// ShardDown reports whether shard i is currently marked down.
func (b *Balancer) ShardDown(i int) bool {
	return i >= 0 && i < len(b.down) && b.down[i].Load()
}

// ResetBackendConns closes every idle pooled keep-alive connection to
// every shard (the conn-drop fault plan), reporting how many were
// dropped. Pools refill on demand; forwards caught on a dropped
// connection retry on a fresh one.
func (b *Balancer) ResetBackendConns() int {
	b.mu.Lock()
	pools := append([]*backendPool(nil), b.pools...)
	b.mu.Unlock()
	n := 0
	for _, p := range pools {
		n += p.reset()
	}
	return n
}

// Retries reports cumulative forward re-attempts.
func (b *Balancer) Retries() int64 { return b.retryN.Load() }

// BreakerOpens reports cumulative circuit-breaker opens.
func (b *Balancer) BreakerOpens() int64 { return b.breakerN.Load() }

// HalfOpens reports cumulative half-open trial forwards.
func (b *Balancer) HalfOpens() int64 { return b.halfOpenN.Load() }

// breakerRejects reports whether shard i's breaker keeps it out of the
// key-less failover rotation: open and cooling down, or open past the
// cooldown with a half-open trial already in flight. An open breaker
// past its cooldown with no trial in flight is probeable — pick may
// route to it so one request can become the trial. The first load
// keeps the healthy path to one atomic read.
func (b *Balancer) breakerRejects(i int) bool {
	br := &b.breakers[i]
	ou := br.openUntil.Load()
	if ou == 0 {
		return false
	}
	if b.clk.Now().UnixNano() < ou {
		return true
	}
	return br.trial.Load()
}

// admit decides whether a forward to shard i may proceed, and whether
// it proceeds as the half-open trial. Closed breaker: proceed normally.
// Open and cooling down: rejected. Open past the cooldown: exactly one
// caller wins the trial CAS and proceeds as the probe; everyone else is
// rejected until the probe's outcome is known.
func (b *Balancer) admit(i int) (trial, ok bool) {
	br := &b.breakers[i]
	ou := br.openUntil.Load()
	if ou == 0 {
		return false, true
	}
	if b.clk.Now().UnixNano() < ou {
		return false, false
	}
	if br.trial.CompareAndSwap(false, true) {
		b.halfOpenN.Add(1)
		return true, true
	}
	return false, false
}

// noteForward records a forward outcome against shard i's breaker:
// success closes it (and ends any half-open trial), a failed trial
// re-arms the cooldown, and enough consecutive normal failures open it.
func (b *Balancer) noteForward(i int, ok, trial bool) {
	br := &b.breakers[i]
	if ok {
		br.fails.Store(0)
		if br.openUntil.Load() != 0 {
			br.openUntil.Store(0)
		}
		br.trial.Store(false)
		return
	}
	if trial {
		br.openUntil.Store(b.clk.Now().Add(b.scale.Wall(b.opts.BreakerCooldown)).UnixNano())
		br.trial.Store(false)
		b.breakerN.Add(1)
		return
	}
	if br.fails.Add(1) >= int32(b.opts.BreakerThreshold) {
		br.openUntil.Store(b.clk.Now().Add(b.scale.Wall(b.opts.BreakerCooldown)).UnixNano())
		b.breakerN.Add(1)
	}
}

// handleConn serves one client connection: parse, forward on an LB stage
// slot, relay the shard's reply bytes in one Write, honouring client
// keep-alive.
func (b *Balancer) handleConn(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)
	j := &job{}
	for {
		if err := j.req.Parse(br); err != nil {
			return // client closed, or unparseable — drop the connection
		}
		j.dec = b.route(j.req.Line.Path, j.req.Query)
		j.conn = "close"
		if j.req.KeepAlive() {
			j.conn = "keep-alive"
		}
		if err := b.lb.Enter(); err != nil {
			return // balancer stopping, or its line is full
		}
		reply, err := b.forward(j)
		b.lb.Leave()
		if err != nil {
			_, _ = conn.Write(badGateway)
			return
		}
		_, err = conn.Write(*reply)
		httpwire.PutBuffer(reply)
		if err != nil || j.conn == "close" {
			return
		}
	}
}

// forward is the LB stage's work: pick the shard (or fan out) and fetch
// the reply, as bytes ready for the client in a buffer from httpwire's
// pool that the caller gives back once written.
func (b *Balancer) forward(j *job) (*[]byte, error) {
	if j.dec.Fanout {
		b.fanoutN.Add(1)
		return b.fanout(j)
	}
	shard := b.pick(j)
	b.routeN.Add(1)
	b.routed[shard].Add(1)
	raw := httpwire.GetBuffer()
	*raw = appendRequest((*raw)[:0], &j.req)
	reply, err := b.send(shard, *raw, j.conn)
	httpwire.PutBuffer(raw)
	return reply, err
}

// pick chooses the shard for a single-shard request: ring owner for
// keyed requests (the data lives there — no shard can stand in);
// for key-less ones the configured policy (hash of the request target,
// or round-robin), failing over past down or breaker-open shards.
func (b *Balancer) pick(j *job) int {
	if j.dec.Key != "" {
		return b.ring.Owner(j.dec.Key)
	}
	n := len(b.shards)
	var first int
	if b.opts.LB == LBRR {
		first = int((b.rr.Add(1) - 1) % int64(n))
	} else {
		first = b.ring.Owner(j.req.Line.Target)
	}
	for k := 0; k < n; k++ {
		s := (first + k) % n
		if !b.down[s].Load() && !b.breakerRejects(s) {
			return s
		}
	}
	return first // every shard unhealthy: fail on the policy's choice
}

// fanout broadcasts the request to every shard and waits for all of
// them, up to the paper-time fan-out deadline; the reply is the owner
// shard's response (the target-hash owner when the request carries no
// key). Waiting on every shard is what makes a broadcast write visible
// to every subsequent routed read; the deadline is what keeps a dead
// shard from wedging every cross-shard page forever — shards that miss
// it are treated as failed and the page degrades to the responses in
// hand.
func (b *Balancer) fanout(j *job) (*[]byte, error) {
	n := len(b.shards)
	type result struct {
		i     int
		reply *[]byte
		err   error
	}
	// A shard that misses the deadline is still reading the request after
	// the job has moved on, so a fan-out's request bytes are the garbage
	// collector's, not the pool's.
	raw, conn := appendRequest(nil, &j.req), j.conn
	// Buffered to n: a shard answering after the deadline parks its
	// result here and the goroutine exits — nothing leaks.
	ch := make(chan result, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			reply, err := b.send(i, raw, conn)
			ch <- result{i, reply, err}
		}(i)
	}
	replies := make([]*[]byte, n)
	errs := make([]error, n)
	var deadline <-chan time.Time
	if d := b.opts.FanoutDeadline; d > 0 {
		deadline = b.clk.After(b.scale.Wall(d))
	}
	timedOut := false
	for got := 0; got < n && !timedOut; {
		select {
		case r := <-ch:
			replies[r.i], errs[r.i] = r.reply, r.err
			got++
		case <-deadline:
			timedOut = true
		}
	}
	if timedOut {
		for i := range errs {
			if replies[i] == nil && errs[i] == nil {
				errs[i] = fmt.Errorf("cluster: shard %d: %w", i, ErrFanoutDeadline)
			}
		}
	}
	owner := b.ring.Owner(j.req.Line.Target)
	if j.dec.Key != "" {
		owner = b.ring.Owner(j.dec.Key)
	}
	// The owner's reply if it has one, else the first in hand; the others
	// go back to the pool at once.
	reply := replies[owner]
	for _, r := range replies {
		if reply == nil {
			reply = r
		}
	}
	for _, r := range replies {
		if r != nil && r != reply {
			httpwire.PutBuffer(r)
		}
	}
	if reply == nil {
		return nil, errs[owner]
	}
	return reply, nil
}

// send forwards one request to a shard over a pooled keep-alive backend
// connection: fail fast when the shard is down or its breaker is open,
// retry immediately on a stale pooled connection, and retry with
// paper-time backoff on transient errors up to the configured budget.
// Every re-attempt counts toward lb.retry; the outcome feeds the
// shard's breaker.
func (b *Balancer) send(shard int, raw []byte, conn string) (*[]byte, error) {
	if b.down[shard].Load() {
		return nil, fmt.Errorf("cluster: shard %d: %w", shard, ErrShardDown)
	}
	trial, ok := b.admit(shard)
	if !ok {
		return nil, fmt.Errorf("cluster: shard %d: breaker open: %w", shard, ErrShardDown)
	}
	b.mu.Lock()
	if shard >= len(b.pools) {
		b.mu.Unlock()
		return nil, fmt.Errorf("cluster: shard %d not serving", shard)
	}
	p := b.pools[shard]
	b.mu.Unlock()
	var lastErr error
	for try := 0; try <= b.opts.Retries; try++ {
		if try > 0 {
			b.retryN.Add(1)
			b.clk.Sleep(b.scale.Wall(b.opts.RetryBackoff))
			if b.down[shard].Load() {
				lastErr = fmt.Errorf("cluster: shard %d: %w", shard, ErrShardDown)
				break
			}
		}
		reply, err := b.sendOnce(p, raw, conn)
		if err == nil {
			b.noteForward(shard, true, trial)
			return reply, nil
		}
		lastErr = err
	}
	b.noteForward(shard, false, trial)
	return nil, lastErr
}

// sendOnce makes a single forward over one shard's pool: use an idle
// pooled connection (falling back to a fresh dial if it has gone stale
// — that fallback counts as a retry), or dial fresh. A connection the
// shard said it is closing is not pooled again.
func (b *Balancer) sendOnce(p *backendPool, raw []byte, conn string) (*[]byte, error) {
	for attempt := 0; ; attempt++ {
		bc, fresh, err := p.get()
		if err != nil {
			return nil, err
		}
		reply, keep, err := bc.roundTrip(raw, conn)
		if err == nil {
			if keep {
				p.put(bc)
			} else {
				bc.close()
			}
			return reply, nil
		}
		bc.close()
		// A pooled connection may have been closed by the shard between
		// uses; a freshly dialed one failing is a real error.
		if fresh || attempt > 0 {
			return nil, err
		}
		b.retryN.Add(1)
	}
}

// appendRequest re-serializes a parsed request for a shard backend: the
// original method and target on a keep-alive connection, the end-to-end
// header fields in the order the client sent them, and any body. Only the
// hop-by-hop fields are the balancer's own.
func appendRequest(dst []byte, req *httpwire.Request) []byte {
	dst = append(dst, req.Line.Method...)
	dst = append(dst, ' ')
	dst = append(dst, req.Line.Target...)
	dst = append(dst, " HTTP/1.1\r\nHost: shard\r\nConnection: keep-alive\r\n"...)
	for _, f := range req.Header {
		switch f.Name {
		case "Host", "Connection", "Content-Length":
			continue
		}
		dst = append(dst, f.Name...)
		dst = append(dst, ": "...)
		dst = append(dst, f.Value...)
		dst = append(dst, "\r\n"...)
	}
	if len(req.Body) > 0 {
		dst = append(dst, "Content-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(req.Body)), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, req.Body...)
}

// backendPool hands out keep-alive connections to one shard backend.
type backendPool struct {
	addr string

	mu     sync.Mutex
	idle   []*backendConn
	closed bool
}

type backendConn struct {
	conn net.Conn
	br   *bufio.Reader
}

// get returns an idle pooled connection, or dials a fresh one; fresh
// reports which, so callers know a failure cannot be a stale keep-alive.
func (p *backendPool) get() (bc *backendConn, fresh bool, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, fmt.Errorf("cluster: backend pool %s closed", p.addr)
	}
	if n := len(p.idle); n > 0 {
		bc = p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return bc, false, nil
	}
	p.mu.Unlock()
	conn, err := net.DialTimeout("tcp", p.addr, 10*time.Second)
	if err != nil {
		return nil, true, err
	}
	return &backendConn{conn: conn, br: bufio.NewReader(conn)}, true, nil
}

// put returns a healthy connection to the pool.
func (p *backendPool) put(bc *backendConn) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		bc.close()
		return
	}
	p.idle = append(p.idle, bc)
	p.mu.Unlock()
}

// reset closes every idle connection without closing the pool: the
// next get dials fresh. Fault plans use it to simulate keep-alive
// connection drops.
func (p *backendPool) reset() int {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, bc := range idle {
		bc.close()
	}
	return len(idle)
}

// close drops every idle connection and refuses new ones.
func (p *backendPool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, bc := range idle {
		bc.close()
	}
}

// roundTrip sends the request bytes and reads the shard's reply into a
// pooled buffer, the Connection line already rewritten to conn; the
// caller owns the buffer. keep reports whether the shard keeps the
// backend connection open.
func (bc *backendConn) roundTrip(raw []byte, conn string) (reply *[]byte, keep bool, err error) {
	if _, err := bc.conn.Write(raw); err != nil {
		return nil, false, err
	}
	reply = httpwire.GetBuffer()
	resp, err := httpwire.ReadResponse(bc.br, *reply, conn)
	if err != nil {
		httpwire.PutBuffer(reply)
		return nil, false, err
	}
	*reply = resp.Raw
	return reply, resp.KeepAlive, nil
}

func (bc *backendConn) close() { _ = bc.conn.Close() }
