package dbtier

import (
	"fmt"
	"sync"
	"testing"

	"stagedweb/internal/sqldb"
)

// TestAsyncReplicationConverges: async writes return before replicas
// apply, but after a Sync barrier every backend is byte-identical —
// including auto-assigned primary keys, which proves log replay
// preserves determinism.
func TestAsyncReplicationConverges(t *testing.T) {
	db := newTierDB(t)
	db.SetMVCC(true)
	tier := New(db, Options{Replicas: 3, Conns: 2, Async: true})
	defer tier.Close()
	if !tier.async {
		t.Fatal("tier not async")
	}
	c := tier.Conn()
	var lastID int64
	for i := 0; i < 50; i++ {
		res, err := c.Exec("INSERT INTO kv (id, v) VALUES (NULL, ?)", fmt.Sprintf("burst-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		lastID = res.LastInsertID
	}
	tier.Sync()
	if lag := tier.ReplLag(); lag != 0 {
		t.Fatalf("ReplLag after Sync = %d", lag)
	}
	for i, b := range tier.Backends() {
		if n, err := b.TableSize("kv"); err != nil || n != 55 {
			t.Fatalf("backend %d has %d rows, err %v; want 55", i, n, err)
		}
		bc := b.Connect()
		rs, err := bc.Query("SELECT v FROM kv WHERE id = ?", lastID)
		if err != nil || rs.Str(0, "v") != "burst-49" {
			t.Fatalf("backend %d auto-id drift: id %d = %q, err %v", i, lastID, rs.Str(0, "v"), err)
		}
		bc.Close()
	}
	if tier.ReplayErrors() != 0 {
		t.Fatalf("replay errors = %d", tier.ReplayErrors())
	}
}

// TestAsyncBoundedStaleness: writers are backpressured once the slowest
// replica trails by more than maxLag, so the lag probe can never grow
// without bound. Four times maxLag writes must keep within it; then the
// bound is lowered to one the replica surely falls behind by (under
// -race it may not trail by maxLag), and the lag must reach it and no
// more.
func TestAsyncBoundedStaleness(t *testing.T) {
	db := newTierDB(t)
	tier := New(db, Options{Replicas: 2, Conns: 2, Async: true})
	defer tier.Close()
	c := tier.Conn()
	write := func(n int) (peak int64) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := c.Exec("UPDATE kv SET v = ? WHERE id = 1", fmt.Sprintf("w%d", i)); err != nil {
				t.Fatal(err)
			}
			lag := tier.ReplLag()
			if lag > tier.lagBound {
				t.Fatalf("lag %d exceeded bound %d after write %d", lag, tier.lagBound, i)
			}
			peak = max(peak, lag)
		}
		return peak
	}
	write(4 * maxLag)
	tier.Sync()
	tier.lagBound = 4
	if peak := write(200); peak != tier.lagBound {
		t.Fatalf("peak lag %d over 200 writes, want the bound %d: backpressure never engaged", peak, tier.lagBound)
	}
	tier.Sync()
}

// TestSyncModeReadYourWrites: in sync mode (the default) every replica
// has applied a write before Exec returns, so an immediate read from
// any backend in the rotation observes it — the pre-MVCC external
// contract, now enforced by a CommitTS wait instead of a table lock.
func TestSyncModeReadYourWrites(t *testing.T) {
	db := newTierDB(t)
	tier := New(db, Options{Replicas: 3, Conns: 2})
	defer tier.Close()
	c := tier.Conn()
	for i := 0; i < 30; i++ {
		want := fmt.Sprintf("v%d", i)
		if _, err := c.Exec("UPDATE kv SET v = ? WHERE id = 2", want); err != nil {
			t.Fatal(err)
		}
		// Hit every backend in the rotation.
		for r := 0; r < tier.Replicas(); r++ {
			rs, err := c.Query("SELECT v FROM kv WHERE id = 2")
			if err != nil || rs.Str(0, "v") != want {
				t.Fatalf("write %d not visible on rotation read %d: got %q, err %v", i, r, rs.Str(0, "v"), err)
			}
		}
	}
}

// TestConcurrentWritersMVCCTier: many goroutines writing through an
// MVCC tier; conflicts are retried inside sqldb, replicas replay the
// winning stream, and everything converges.
func TestConcurrentWritersMVCCTier(t *testing.T) {
	db := newTierDB(t)
	db.SetMVCC(true)
	tier := New(db, Options{Replicas: 2, Conns: 4, Async: true})
	defer tier.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := tier.Conn()
			for i := 0; i < 20; i++ {
				if _, err := c.Exec("UPDATE kv SET v = ? WHERE id = 3", fmt.Sprintf("w%d-%d", w, i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	tier.Sync()
	var vals []string
	for i, b := range tier.Backends() {
		bc := b.Connect()
		rs, err := bc.Query("SELECT v FROM kv WHERE id = 3")
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, rs.Str(0, "v"))
		bc.Close()
		if i > 0 && vals[i] != vals[0] {
			t.Fatalf("backends diverged: %v", vals)
		}
	}
	if tier.ReplayErrors() != 0 {
		t.Fatalf("replay errors = %d", tier.ReplayErrors())
	}
}

// TestLogTruncation: the tier advances the log's base through the
// replica watermark, so a long-lived tier does not accumulate its whole
// write history.
func TestLogTruncation(t *testing.T) {
	db := newTierDB(t)
	tier := New(db, Options{Replicas: 2, Conns: 1})
	defer tier.Close()
	c := tier.Conn()
	for i := 0; i < 500; i++ {
		if _, err := c.Exec("UPDATE kv SET v = ? WHERE id = 4", fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	tier.Sync()
	// One more write forces a truncation pass after the barrier.
	if _, err := c.Exec("UPDATE kv SET v = 'last' WHERE id = 4"); err != nil {
		t.Fatal(err)
	}
	if tail, _ := tier.log.Since(tier.log.Base()); len(tail) > 50 {
		t.Fatalf("log retained %d entries; truncation not advancing", len(tail))
	}
}

// TestProgressWakesLateWaiter: advances with no waiter make and close no
// channel, and a waiter that takes the channel after several of them
// still wakes on the next one.
func TestProgressWakesLateWaiter(t *testing.T) {
	tier := &Tier{}
	for i := 0; i < 3; i++ {
		tier.notifyProgress()
	}
	if tier.progCh != nil {
		t.Fatal("advances with no waiter left a channel")
	}
	ch := tier.progress()
	if again := tier.progress(); again != ch {
		t.Fatal("two waiters between advances took different channels")
	}
	select {
	case <-ch:
		t.Fatal("channel closed before the next advance")
	default:
	}
	tier.notifyProgress()
	select {
	case <-ch:
	default:
		t.Fatal("the next advance did not wake the waiter")
	}
}

// BenchmarkWrite times one INSERT through the tier under each engine and
// replication mode as the replica count grows. A sync write returns once
// every backend has applied it, so its cost grows with the replicas; an
// async write only appends to the replication log.
func BenchmarkWrite(b *testing.B) {
	for _, mode := range []struct {
		name        string
		mvcc, async bool
	}{{"lock/sync", false, false}, {"mvcc/sync", true, false}, {"mvcc/async", true, true}} {
		for _, replicas := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/replicas=%d", mode.name, replicas), func(b *testing.B) {
				db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
				db.SetMVCC(mode.mvcc)
				db.MustCreateTable(sqldb.Schema{
					Table:      "kv",
					Columns:    []sqldb.Column{{Name: "id", Type: sqldb.Int}, {Name: "v", Type: sqldb.String}},
					PrimaryKey: "id",
				})
				tier := New(db, Options{Replicas: replicas, Conns: 2, Async: mode.async})
				defer tier.Close()
				c := tier.Conn()
				b.ReportAllocs()
				for i := 0; b.Loop(); i++ {
					if _, err := c.Exec("INSERT INTO kv (id, v) VALUES (?, 'x')", i+1); err != nil {
						b.Fatal(err)
					}
				}
				tier.Sync()
			})
		}
	}
}
