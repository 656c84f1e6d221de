package cluster_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/cluster"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
	"stagedweb/internal/webtest"
)

// bootCluster builds a balancer over n real shard instances (unmodified
// variant, TPC-W app, zero cost model) driven entirely by the manual
// clock — no timer ever needs to fire, so the test is deterministic.
func bootCluster(t *testing.T, manual *clock.Manual, n int, lb string) (*cluster.Balancer, string) {
	t.Helper()
	return bootClusterOpts(t, manual, cluster.Options{Shards: n, LB: lb})
}

// bootClusterOpts is bootCluster with the full balancer option surface
// exposed — the failover tests shorten fan-out deadlines, retry
// backoffs, and breaker cooldowns so failure paths fire in test time.
func bootClusterOpts(t *testing.T, clk clock.Clock, opts cluster.Options) (*cluster.Balancer, string) {
	t.Helper()
	insts := buildShardInsts(t, clk, opts.Shards, opts.VNodes)
	b, err := cluster.New(opts, insts, func(path string, q map[string]string) cluster.Decision {
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
	if !webtest.WaitUntil(5*time.Second, func() bool {
		resp, err := webtest.Get(addr, tpcw.PageHome)
		return err == nil && resp.Status == 200
	}) {
		b.Stop()
		t.Fatal("cluster did not come up")
	}
	return b, addr
}

// buildShardInsts builds n unmodified-variant shard instances over
// consistently-partitioned TPC-W databases, all on the given clock.
func buildShardInsts(t *testing.T, clk clock.Clock, n, vnodes int) []variant.Instance {
	t.Helper()
	ring, err := cluster.NewRing(n, vnodes)
	if err != nil {
		t.Fatal(err)
	}
	popCfg := tpcw.PopulateConfig{Items: 60, Customers: 40, Orders: 30}
	insts := make([]variant.Instance, n)
	for s := 0; s < n; s++ {
		cost := sqldb.CostModel{}
		db := sqldb.Open(sqldb.Options{Clock: clk, Timescale: clock.RealTime, Cost: &cost})
		if err := tpcw.CreateTables(db); err != nil {
			t.Fatal(err)
		}
		s := s
		counts, err := tpcw.PopulateShard(db, popCfg, func(cID int) bool {
			return ring.Owner(tpcw.CustomerKey(cID)) == s
		})
		if err != nil {
			t.Fatal(err)
		}
		v, ok := variant.Lookup(variant.Unmodified)
		if !ok {
			t.Fatal("unmodified variant not registered")
		}
		insts[s], err = v.Build(variant.Env{
			App:   tpcw.NewApp(counts, clk),
			DB:    db,
			Clock: clk,
			Scale: clock.RealTime,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return insts
}

// TestClusterReadYourWrites drives the cross-shard write path through
// the balancer: admin_response updates the replicated item table, which
// fans out to every shard and only replies once all shards have
// applied it — so a read routed to ANY shard afterwards must see the
// new price. lb=rr makes consecutive key-less reads visit the shards
// round-robin, covering every copy.
func TestClusterReadYourWrites(t *testing.T) {
	manual := clock.NewManual(time.Date(2009, 6, 29, 0, 0, 0, 0, time.UTC))
	const shards = 2
	b, addr := bootCluster(t, manual, shards, cluster.LBRR)
	defer b.Stop()

	resp, err := webtest.Get(addr, tpcw.PageAdminResponse+"?i_id=7&cost=42.50")
	if err != nil {
		t.Fatalf("admin_response: %v", err)
	}
	if resp.Status != 200 {
		t.Fatalf("admin_response status %d", resp.Status)
	}

	// One read per shard: round-robin guarantees two consecutive
	// key-less requests land on different shards.
	for i := 0; i < shards; i++ {
		resp, err := webtest.Get(addr, tpcw.PageProductDetail+"?i_id=7")
		if err != nil {
			t.Fatalf("product_detail read %d: %v", i, err)
		}
		if resp.Status != 200 {
			t.Fatalf("product_detail read %d: status %d", i, resp.Status)
		}
		if !strings.Contains(string(resp.Body), "$42.50") {
			t.Errorf("read %d after broadcast write does not show the new price", i)
		}
	}
}

// TestClusterCustomerAffinity checks keyed routing end to end: every
// customer's pages are answered from the shard owning that customer's
// rows (a miss would 500 or render without the customer's name).
func TestClusterCustomerAffinity(t *testing.T) {
	manual := clock.NewManual(time.Date(2009, 6, 29, 0, 0, 0, 0, time.UTC))
	b, addr := bootCluster(t, manual, 3, cluster.LBHash)
	defer b.Stop()

	for c := 1; c <= 40; c++ {
		path := fmt.Sprintf("%s?uname=%s&passwd=pw%d", tpcw.PageOrderDisplay, tpcw.Uname(c), c)
		resp, err := webtest.Get(addr, path)
		if err != nil {
			t.Fatalf("order_display customer %d: %v", c, err)
		}
		if resp.Status != 200 {
			t.Errorf("order_display customer %d: status %d (routed off the owning shard?)", c, resp.Status)
		}
	}
}

// TestClusterStopLeavesNoGoroutines: after Stop, the balancer's client
// connections, fan-out forwards and shard servers leave no goroutine
// behind.
func TestClusterStopLeavesNoGoroutines(t *testing.T) {
	manual := clock.NewManual(time.Date(2009, 6, 29, 0, 0, 0, 0, time.UTC))
	before := runtime.NumGoroutine()
	b, addr := bootCluster(t, manual, 2, cluster.LBHash)
	for _, path := range []string{
		tpcw.PageHome,
		tpcw.PageAdminResponse + "?i_id=7&cost=42.50", // fanned out
		fmt.Sprintf("%s?uname=%s&passwd=pw3", tpcw.PageOrderDisplay, tpcw.Uname(3)),
	} {
		if resp, err := webtest.Get(addr, path); err != nil || resp.Status != 200 {
			t.Fatalf("GET %s: %v %v", path, resp, err)
		}
	}
	b.Stop()
	if !webtest.WaitUntil(5*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Stop, %d before Serve:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
	}
}
