package dbtier

import (
	"sync"
	"testing"
	"time"

	"stagedweb/internal/sqldb"
	"stagedweb/internal/webtest"
)

func TestMain(m *testing.M) { webtest.Main(m) }

func newTierDB(t *testing.T) *sqldb.DB { return webtest.KVDB(t, 5, "seed") }

func TestSingleBackendPassThrough(t *testing.T) {
	db := newTierDB(t)
	tier := New(db, Options{Replicas: 1, Conns: 2})
	defer tier.Close()
	if tier.Replicas() != 1 {
		t.Fatalf("Replicas = %d", tier.Replicas())
	}
	c := tier.Conn()
	if _, err := c.Exec("INSERT INTO kv (id, v) VALUES (6, 'x')"); err != nil {
		t.Fatal(err)
	}
	rs, err := c.Query("SELECT v FROM kv WHERE id = 6")
	if err != nil || rs.Len() != 1 {
		t.Fatalf("read own write: %v rows, err %v", rs.Len(), err)
	}
}

// TestReadsRoundRobin proves reads spread across every backend: with R
// backends and R*k queries, each backend executes exactly k of them.
func TestReadsRoundRobin(t *testing.T) {
	db := newTierDB(t)
	tier := New(db, Options{Replicas: 3, Conns: 2})
	defer tier.Close()
	c := tier.Conn()
	before := make([]int64, 3)
	for i, b := range tier.Backends() {
		before[i] = b.QueryCount()
	}
	const rounds = 4
	for i := 0; i < 3*rounds; i++ {
		if _, err := c.Query("SELECT v FROM kv WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range tier.Backends() {
		if got := b.QueryCount() - before[i]; got != rounds {
			t.Fatalf("backend %d executed %d reads, want %d", i, got, rounds)
		}
	}
}

// TestWriteFanOut proves DML through the tier lands on every backend
// before Exec returns, with identical auto-assigned primary keys.
func TestWriteFanOut(t *testing.T) {
	db := newTierDB(t)
	tier := New(db, Options{Replicas: 3, Conns: 2})
	defer tier.Close()
	c := tier.Conn()
	res, err := c.Exec("INSERT INTO kv (id, v) VALUES (NULL, 'fanned')")
	if err != nil {
		t.Fatal(err)
	}
	if res.LastInsertID != 6 {
		t.Fatalf("LastInsertID = %d, want 6", res.LastInsertID)
	}
	for i, b := range tier.Backends() {
		n, err := b.TableSize("kv")
		if err != nil || n != 6 {
			t.Fatalf("backend %d: TableSize = %d, %v; want 6", i, n, err)
		}
		bc := b.Connect()
		rs, err := bc.Query("SELECT v FROM kv WHERE id = 6")
		bc.Close()
		if err != nil || rs.Len() != 1 || rs.Str(0, "v") != "fanned" {
			t.Fatalf("backend %d missed the write: %v rows, err %v", i, rs.Len(), err)
		}
	}
	if tier.ReplayErrors() != 0 {
		t.Fatalf("replay errors = %d", tier.ReplayErrors())
	}
}

// TestDirectPrimaryWritesReplicate proves writes that bypass the tier's
// connections (e.g. a populate step run directly against the primary)
// still reach every replica through the replication log. Replication is
// asynchronous now, so observing it takes a Sync barrier.
func TestDirectPrimaryWritesReplicate(t *testing.T) {
	db := newTierDB(t)
	tier := New(db, Options{Replicas: 2, Conns: 1})
	defer tier.Close()
	c := db.Connect()
	defer c.Close()
	if _, err := c.Exec("UPDATE kv SET v = 'direct' WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	tier.Sync()
	replica := tier.Backends()[1]
	rc := replica.Connect()
	defer rc.Close()
	rs, err := rc.Query("SELECT v FROM kv WHERE id = 1")
	if err != nil || rs.Str(0, "v") != "direct" {
		t.Fatalf("replica v = %q, err %v; want \"direct\"", rs.Str(0, "v"), err)
	}
}

// TestAcquireWaitMetrics proves the instrumented acquisition path: with
// a single pooled connection held, a second statement blocks, and the
// wait count, wait-time histogram, and in-use gauge all record it.
func TestAcquireWaitMetrics(t *testing.T) {
	db := newTierDB(t)
	tier := New(db, Options{Replicas: 1, Conns: 1})
	defer tier.Close()

	b := tier.backends[0]
	held, err := tier.acquire(b)
	if err != nil {
		t.Fatal(err)
	}
	if tier.InUse() != 1 {
		t.Fatalf("InUse = %d, want 1", tier.InUse())
	}

	done := make(chan error, 1)
	go func() {
		_, err := tier.Conn().Query("SELECT v FROM kv WHERE id = 1")
		done <- err
	}()
	// Wait until the query has registered its blocked acquisition.
	if !webtest.WaitUntil(2*time.Second, func() bool { return tier.WaitCount() != 0 }) {
		t.Fatal("query never blocked on acquisition")
	}
	tier.release(b, held)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if tier.WaitCount() != 1 {
		t.Fatalf("WaitCount = %d, want 1", tier.WaitCount())
	}
	if tier.WaitTimes().Snapshot().Count != 1 {
		t.Fatalf("wait-time histogram count = %d, want 1", tier.WaitTimes().Snapshot().Count)
	}
	if tier.InUse() != 0 {
		t.Fatalf("InUse after release = %d, want 0", tier.InUse())
	}
}

func TestCloseReleasesConnections(t *testing.T) {
	db := newTierDB(t)
	tier := New(db, Options{Replicas: 2, Conns: 3})
	c := tier.Conn()
	if _, err := c.Query("SELECT v FROM kv WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	tier.Close()
	tier.Close() // idempotent
	for i, b := range tier.Backends() {
		if n := b.OpenConns(); n != 0 {
			t.Fatalf("backend %d still has %d open connections", i, n)
		}
	}
	if _, err := c.Query("SELECT v FROM kv WHERE id = 1"); err != ErrTierClosed {
		t.Fatalf("Query after Close = %v, want ErrTierClosed", err)
	}
	if _, err := c.Exec("DELETE FROM kv WHERE id = 1"); err != ErrTierClosed {
		t.Fatalf("Exec after Close = %v, want ErrTierClosed", err)
	}
	// The replication log is detached: direct primary writes no longer replay.
	pc := db.Connect()
	defer pc.Close()
	if _, err := pc.Exec("INSERT INTO kv (id, v) VALUES (100, 'late')"); err != nil {
		t.Fatal(err)
	}
	if n, _ := tier.Backends()[1].TableSize("kv"); n != 5 {
		t.Fatalf("replica size after Close = %d, want 5", n)
	}
}

// TestConcurrentMixedLoad hammers a replicated tier with concurrent
// readers and writers and then checks every backend converged to the
// same contents — the consistency the synchronous fan-out guarantees.
func TestConcurrentMixedLoad(t *testing.T) {
	db := newTierDB(t)
	tier := New(db, Options{Replicas: 3, Conns: 4})
	defer tier.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := tier.Conn()
			for i := 0; i < 25; i++ {
				if i%5 == 0 {
					if _, err := c.Exec("INSERT INTO kv (id, v) VALUES (NULL, ?)", "w"); err != nil {
						t.Error(err)
						return
					}
				} else if _, err := c.Query("SELECT v FROM kv WHERE id = ?", i%5+1); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if tier.ReplayErrors() != 0 {
		t.Fatalf("replay errors = %d", tier.ReplayErrors())
	}
	want, err := tier.Backends()[0].TableSize("kv")
	if err != nil {
		t.Fatal(err)
	}
	if want != 5+8*5 {
		t.Fatalf("primary size = %d, want %d", want, 5+8*5)
	}
	for i, b := range tier.Backends() {
		if n, _ := b.TableSize("kv"); n != want {
			t.Fatalf("backend %d size = %d, primary = %d", i, n, want)
		}
	}
}
