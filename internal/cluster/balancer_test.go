package cluster_test

import (
	"fmt"
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

func TestMain(m *testing.M) { webtest.Main(m) }

// bootCluster builds a balancer over n real shard instances (unmodified
// variant, TPC-W app, zero cost model) driven entirely by the manual
// clock — no timer ever needs to fire, so the test is deterministic.
func bootCluster(t *testing.T, manual *clock.Manual, n int, lb string) (*cluster.Balancer, string) {
	t.Helper()
	return bootClusterOpts(t, manual, cluster.Options{Shards: n, LB: lb})
}

// bootClusterOpts is bootCluster with the full balancer option surface
// exposed — the failover tests compress the timescale so the fixed
// paper-time retry backoff, breaker cooldown and fan-out deadline pass
// in test time.
func bootClusterOpts(t *testing.T, clk clock.Clock, opts cluster.Options) (*cluster.Balancer, string) {
	t.Helper()
	insts := buildShardInsts(t, clk, variant.Unmodified, opts.Shards)
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

// buildShardInsts builds n shard instances of the named variant over
// consistently-partitioned TPC-W databases, all on the given clock.
func buildShardInsts(t *testing.T, clk clock.Clock, name string, n int) []variant.Instance {
	t.Helper()
	ring, err := cluster.NewRing(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	popCfg := tpcw.PopulateConfig{Items: 60, Customers: 40, Orders: 30}
	insts := make([]variant.Instance, n)
	for s := 0; s < n; s++ {
		cost := sqldb.CostModel{}
		db := sqldb.Open(sqldb.Options{Clock: clk, Timescale: clock.RealTime, Cost: &cost})
		webtest.NoOpenConns(t, db)
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
		v, ok := variant.Lookup(name)
		if !ok {
			t.Fatalf("variant %q does not look up", name)
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
// new price. The reads are key-less, so the hash of their request target
// picks the shard; two targets the ring sends to different shards cover
// every copy.
func TestClusterReadYourWrites(t *testing.T) {
	manual := clock.NewManual(time.Date(2009, 6, 29, 0, 0, 0, 0, time.UTC))
	const shards = 2
	b, addr := bootCluster(t, manual, shards, cluster.LBHash)
	defer b.Stop()
	ring, err := cluster.NewRing(shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]string, shards) // targets[s] is routed to shard s
	for n, left := 0, shards; left > 0; n++ {
		target := fmt.Sprintf("%s?i_id=7&n=%d", tpcw.PageProductDetail, n)
		if s := ring.Owner(target); targets[s] == "" {
			targets[s], left = target, left-1
		}
	}

	resp, err := webtest.Get(addr, tpcw.PageAdminResponse+"?i_id=7&cost=42.50")
	if err != nil {
		t.Fatalf("admin_response: %v", err)
	}
	if resp.Status != 200 {
		t.Fatalf("admin_response status %d", resp.Status)
	}

	for i, target := range targets {
		resp, err := webtest.Get(addr, target)
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
	defer webtest.NoNewGoroutines(t)()
	manual := clock.NewManual(time.Date(2009, 6, 29, 0, 0, 0, 0, time.UTC))
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
}

// TestStopEndsIdleKeepAlive: a client that finished one keep-alive
// exchange and went quiet holds up no instance's Stop — the baseline,
// the staged server or a one-shard balancer — for more than a second,
// and leaves no goroutine behind.
func TestStopEndsIdleKeepAlive(t *testing.T) {
	for _, kind := range []string{variant.Unmodified, variant.Modified, "balancer"} {
		t.Run(kind, func(t *testing.T) {
			noLeak := webtest.NoNewGoroutines(t)
			var inst variant.Instance
			if kind == "balancer" {
				b, err := cluster.New(cluster.Options{Shards: 1}, buildShardInsts(t, clock.Real{}, variant.Modified, 1),
					func(string, map[string]string) cluster.Decision { return cluster.Decision{} })
				if err != nil {
					t.Fatal(err)
				}
				inst = b
			} else {
				inst = buildShardInsts(t, clock.Real{}, kind, 1)[0]
			}
			l, addr, err := webtest.Listen()
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan struct{})
			go func() { defer close(served); _ = inst.Serve(l) }()
			c, err := webtest.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if resp, err := c.Do(tpcw.PageHome, true); err != nil || resp.Status != 200 {
				t.Fatalf("keep-alive exchange: %v %v", resp, err)
			}

			start := time.Now()
			inst.Stop()
			<-served
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("Stop took %v with an idle keep-alive client", elapsed)
			}
			noLeak() // with the client still connected
		})
	}
}
