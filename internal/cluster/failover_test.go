package cluster_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/cluster"
	"stagedweb/internal/httpwire"
	"stagedweb/internal/stage"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
	"stagedweb/internal/webtest"
)

// customerOwnedBy finds a populated customer whose consistent-hash
// owner is the given shard — the ring construction is deterministic,
// so rebuilding it here matches the balancer's routing exactly.
func customerOwnedBy(t *testing.T, shards, shard int) int {
	t.Helper()
	ring, err := cluster.NewRing(shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c <= 40; c++ {
		if ring.Owner(tpcw.CustomerKey(c)) == shard {
			return c
		}
	}
	t.Fatalf("no customer in 1..40 owned by shard %d", shard)
	return 0
}

func orderDisplayPath(c int) string {
	return fmt.Sprintf("%s?uname=%s&passwd=pw%d", tpcw.PageOrderDisplay, tpcw.Uname(c), c)
}

// TestShardDownKeyedFailFastAndRejoin: with a shard marked down, pages
// keyed to its customers fail fast (bounded wall time, 502 — the data
// lives nowhere else) while everyone else's pages and key-less reads
// keep working; marking the shard up restores its customers.
func TestShardDownKeyedFailFastAndRejoin(t *testing.T) {
	const shards = 2
	b, addr := bootClusterOpts(t, clock.Real{}, cluster.Options{
		Shards: shards, LB: cluster.LBHash,
		// Compress the paper-time failover knobs so nothing in this
		// test waits for real seconds.
		Scale: 1000,
	})
	defer b.Stop()

	downC := customerOwnedBy(t, shards, 1)
	liveC := customerOwnedBy(t, shards, 0)

	if err := b.SetShardDown(1, true); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := webtest.Get(addr, orderDisplayPath(downC))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("keyed request to a down shard took %v — not a fast failure", elapsed)
	}
	if err != nil {
		t.Fatalf("keyed request to a down shard should get a response, not a transport error: %v", err)
	}
	if resp.Status != 502 {
		t.Fatalf("keyed request to a down shard: status %d, want 502", resp.Status)
	}

	// Other customers and key-less reads are untouched by the outage.
	if resp, err := webtest.Get(addr, orderDisplayPath(liveC)); err != nil || resp.Status != 200 {
		t.Fatalf("live shard's customer during outage: status %v, err %v", resp, err)
	}
	for i := 0; i < 10; i++ {
		if resp, err := webtest.Get(addr, tpcw.PageProductDetail+"?i_id=3"); err != nil || resp.Status != 200 {
			t.Fatalf("key-less read %d during outage: %v, err %v", i, resp, err)
		}
	}

	if err := b.SetShardDown(1, false); err != nil {
		t.Fatal(err)
	}
	if resp, err := webtest.Get(addr, orderDisplayPath(downC)); err != nil || resp.Status != 200 {
		t.Fatalf("rejoined shard's customer: %v, err %v", resp, err)
	}
}

// TestShardDownFanoutDegrades: a cross-shard broadcast with a dead
// shard answers from the survivors within bounded time instead of
// wedging, and the write is visible on the shards that took it.
func TestShardDownFanoutDegrades(t *testing.T) {
	const shards = 2
	b, addr := bootClusterOpts(t, clock.Real{}, cluster.Options{
		Shards: shards, LB: cluster.LBHash,
		Scale: 1000, // 10 paper-second fan-out deadline -> 10 ms wall
	})
	defer b.Stop()

	if err := b.SetShardDown(1, true); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := webtest.Get(addr, tpcw.PageAdminResponse+"?i_id=7&cost=42.50")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fan-out with a down shard took %v — wedged past the deadline", elapsed)
	}
	if err != nil {
		t.Fatalf("degraded fan-out: %v", err)
	}
	if resp.Status != 200 {
		t.Fatalf("degraded fan-out: status %d, want 200 from the surviving shard", resp.Status)
	}
	// The surviving shard applied the broadcast; key-less reads route
	// around the corpse, so the new price is immediately readable.
	resp, err = webtest.Get(addr, tpcw.PageProductDetail+"?i_id=7")
	if err != nil || resp.Status != 200 {
		t.Fatalf("read after degraded broadcast: %v, err %v", resp, err)
	}
	if !strings.Contains(string(resp.Body), "$42.50") {
		t.Error("surviving shard does not show the broadcast write")
	}
}

// unresponsiveShard is a variant.Instance that accepts connections and
// slams them shut — every forward to it fails at the wire, exercising
// the retry budget and the circuit breaker rather than the down flag.
type unresponsiveShard struct{ stop chan struct{} }

func newUnresponsiveShard() *unresponsiveShard {
	return &unresponsiveShard{stop: make(chan struct{})}
}

func (u *unresponsiveShard) Serve(l net.Listener) error {
	go func() { <-u.stop; _ = l.Close() }()
	for {
		c, err := l.Accept()
		if err != nil {
			return nil
		}
		_ = c.Close()
	}
}

func (u *unresponsiveShard) Stop() {
	select {
	case <-u.stop:
	default:
		close(u.stop)
	}
}

func (u *unresponsiveShard) Graph() *stage.Graph     { return stage.NewGraph() }
func (u *unresponsiveShard) Probes() []variant.Probe { return nil }

// The balancer's failover constants: a failed forward is re-attempted
// twice, and five consecutive failures open a shard's breaker.
const (
	forwardRetries   = 2
	breakerThreshold = 5
)

// TestBreakerOpensOnFailingShard: repeated forward failures to a shard
// burn the retry budget, trip its breaker, and subsequent requests to
// it fail fast while the breaker is open.
func TestBreakerOpensOnFailingShard(t *testing.T) {
	const shards = 2
	// Shard 0 is real; shard 1 answers every forward with a slammed
	// connection.
	insts := buildShardInsts(t, clock.Real{}, variant.Unmodified, shards)
	insts[1].Stop()
	insts[1] = newUnresponsiveShard()
	b, err := cluster.New(cluster.Options{
		Shards: shards, LB: cluster.LBHash,
		Scale: 20, // 100 ms paper backoff -> 5 ms wall; 10 s cooldown -> 500 ms
	}, insts, func(path string, q map[string]string) cluster.Decision {
		key, fanout := tpcw.ShardKey(path, q)
		return cluster.Decision{Key: key, Fanout: fanout}
	})
	if err != nil {
		t.Fatal(err)
	}
	l, addr, err := webtest.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = b.Serve(l) }()
	defer b.Stop()

	liveC := customerOwnedBy(t, shards, 0)
	deadC := customerOwnedBy(t, shards, 1)
	if !webtest.WaitUntil(5*time.Second, func() bool {
		resp, err := webtest.Get(addr, orderDisplayPath(liveC))
		return err == nil && resp.Status == 200
	}) {
		t.Fatal("cluster did not come up")
	}

	// Keyed requests to the broken shard: each burns the retry budget
	// and counts a forward failure; the last opens the breaker.
	for i := 0; i < breakerThreshold; i++ {
		if got := probe(t, b, cluster.ProbeLBBreaker); got != 0 {
			t.Fatalf("lb.breaker = %d after %d failed forwards, want 0 below the threshold %d", got, i, breakerThreshold)
		}
		resp, err := webtest.Get(addr, orderDisplayPath(deadC))
		if err != nil || resp.Status != 502 {
			t.Fatalf("request %d to the broken shard: %v, err %v (want 502)", i, resp, err)
		}
	}
	if got := probe(t, b, cluster.ProbeLBRetry); got < breakerThreshold*forwardRetries {
		t.Errorf("lb.retry = %d, want >= %d (every retry budget burned)", got, breakerThreshold*forwardRetries)
	}
	if got := probe(t, b, cluster.ProbeLBBreaker); got < 1 {
		t.Fatalf("lb.breaker = %d, want >= 1", got)
	}

	// Breaker open: the next request fails fast without a forward, and
	// healthy traffic (keyed to shard 0, and key-less routed around the
	// open breaker) is unaffected.
	retriesBefore := probe(t, b, cluster.ProbeLBRetry)
	start := time.Now()
	if resp, err := webtest.Get(addr, orderDisplayPath(deadC)); err != nil || resp.Status != 502 {
		t.Fatalf("breaker-open request: %v, err %v (want 502)", resp, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("breaker-open request took %v — not a fast failure", elapsed)
	}
	if got := probe(t, b, cluster.ProbeLBRetry); got != retriesBefore {
		t.Errorf("breaker-open request still forwarded: retries %d -> %d", retriesBefore, got)
	}
	if resp, err := webtest.Get(addr, orderDisplayPath(liveC)); err != nil || resp.Status != 200 {
		t.Fatalf("healthy shard while breaker open: %v, err %v", resp, err)
	}
	for i := 0; i < 5; i++ {
		if resp, err := webtest.Get(addr, tpcw.PageHome); err != nil || resp.Status != 200 {
			t.Fatalf("key-less read %d while breaker open: %v, err %v", i, resp, err)
		}
	}
}

// recoverableShard is a variant.Instance that slams connections shut
// while unhealthy (every forward fails at the wire) and answers 200 to
// anything once healthy — the minimal shard for driving a breaker
// through open, half-open, and closed.
type recoverableShard struct {
	healthy atomic.Bool
	stop    chan struct{}
}

func newRecoverableShard() *recoverableShard {
	return &recoverableShard{stop: make(chan struct{})}
}

func (r *recoverableShard) Serve(l net.Listener) error {
	go func() { <-r.stop; _ = l.Close() }()
	for {
		c, err := l.Accept()
		if err != nil {
			return nil
		}
		if !r.healthy.Load() {
			_ = c.Close()
			continue
		}
		go r.serveConn(c)
	}
}

func (r *recoverableShard) serveConn(c net.Conn) {
	defer func() { _ = c.Close() }()
	br := bufio.NewReader(c)
	for {
		if _, err := httpwire.ReadRequest(br); err != nil {
			return
		}
		if !r.healthy.Load() {
			return
		}
		_, _ = io.WriteString(c,
			"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 3\r\n\r\nok\n")
	}
}

func (r *recoverableShard) Stop() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
}

func (r *recoverableShard) Graph() *stage.Graph     { return stage.NewGraph() }
func (r *recoverableShard) Probes() []variant.Probe { return nil }

// TestBreakerHalfOpenProbeReadmits: an open breaker whose cooldown has
// expired does not re-admit the shard on timer expiry alone — exactly
// one half-open trial forward probes it. A failed probe re-arms the
// cooldown; the shard only rejoins once a probe succeeds.
func TestBreakerHalfOpenProbeReadmits(t *testing.T) {
	const shards = 2
	insts := buildShardInsts(t, clock.Real{}, variant.Unmodified, shards)
	insts[1].Stop()
	flaky := newRecoverableShard()
	insts[1] = flaky
	b, err := cluster.New(cluster.Options{
		Shards: shards, LB: cluster.LBHash,
		Scale: 50, // 10 paper-second cooldown -> 200 ms wall; 100 ms backoff -> 2 ms
	}, insts, func(path string, q map[string]string) cluster.Decision {
		key, fanout := tpcw.ShardKey(path, q)
		return cluster.Decision{Key: key, Fanout: fanout}
	})
	if err != nil {
		t.Fatal(err)
	}
	l, addr, err := webtest.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = b.Serve(l) }()
	defer b.Stop()

	liveC := customerOwnedBy(t, shards, 0)
	deadC := customerOwnedBy(t, shards, 1)
	if !webtest.WaitUntil(5*time.Second, func() bool {
		resp, err := webtest.Get(addr, orderDisplayPath(liveC))
		return err == nil && resp.Status == 200
	}) {
		t.Fatal("cluster did not come up")
	}
	get := func() int {
		t.Helper()
		resp, err := webtest.Get(addr, orderDisplayPath(deadC))
		if err != nil {
			t.Fatalf("request to flaky shard: %v", err)
		}
		return resp.Status
	}

	// Trip the breaker while the shard is broken.
	for i := 0; i < breakerThreshold; i++ {
		if got := get(); got != 502 {
			t.Fatalf("request %d to broken shard: status %d, want 502", i, got)
		}
	}
	if got := probe(t, b, cluster.ProbeLBBreaker); got < 1 {
		t.Fatalf("lb.breaker = %d, want >= 1", got)
	}
	if got := probe(t, b, cluster.ProbeLBHalfOpen); got != 0 {
		t.Fatalf("lb.halfopen = %d before any cooldown expired", got)
	}

	// Cooldown expires with the shard still broken: the next request is
	// the half-open trial, it fails, and the breaker re-arms.
	time.Sleep(300 * time.Millisecond)
	if got := get(); got != 502 {
		t.Fatalf("failed trial: status %d, want 502", got)
	}
	if got := probe(t, b, cluster.ProbeLBHalfOpen); got != 1 {
		t.Fatalf("lb.halfopen = %d after expired cooldown, want 1 (the trial)", got)
	}
	if got := probe(t, b, cluster.ProbeLBBreaker); got < 2 {
		t.Fatalf("lb.breaker = %d, want >= 2 (failed trial re-arms the cooldown)", got)
	}

	// Timer expiry alone never re-admits: inside the re-armed cooldown
	// the shard is still rejected without any forward.
	if got := get(); got != 502 {
		t.Fatalf("request inside re-armed cooldown: status %d, want 502", got)
	}
	if got := probe(t, b, cluster.ProbeLBHalfOpen); got != 1 {
		t.Fatalf("lb.halfopen = %d, want 1 — breaker admitted a request on timer expiry alone", got)
	}

	// The shard recovers. It still serves nothing until the next trial
	// probes it — and that probe's success is what re-admits it.
	flaky.healthy.Store(true)
	time.Sleep(300 * time.Millisecond)
	if got := get(); got != 200 {
		t.Fatalf("successful trial: status %d, want 200 (probe response relayed)", got)
	}
	if got := probe(t, b, cluster.ProbeLBHalfOpen); got != 2 {
		t.Fatalf("lb.halfopen = %d after recovery, want 2", got)
	}
	// Breaker closed: traffic flows normally, no further trials.
	for i := 0; i < 3; i++ {
		if got := get(); got != 200 {
			t.Fatalf("request %d after re-admission: status %d, want 200", i, got)
		}
	}
	if got := probe(t, b, cluster.ProbeLBHalfOpen); got != 2 {
		t.Fatalf("lb.halfopen = %d after breaker closed, want 2", got)
	}
}

// probe reads one of the balancer's probe gauges by name.
func probe(t *testing.T, b *cluster.Balancer, name string) int64 {
	t.Helper()
	for _, p := range b.Probes() {
		if p.Name == name {
			return int64(p.Gauge())
		}
	}
	t.Fatalf("balancer has no probe %q", name)
	return 0
}
