package dbtier

import (
	"errors"
	"testing"
	"time"

	"stagedweb/internal/webtest"
)

// failoverWait polls until cond holds, failing the test after a wall
// deadline — failover transitions ride the health loop's paper-time
// ticks, compressed through the test's timescale.
func failoverWait(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if !webtest.WaitUntil(5*time.Second, cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestFailoverReadsSurviveDeadReplica proves reads never fail or wedge
// while a replica is dead: before ejection they fail over to a live
// backend within the same call, after ejection the rotation skips the
// corpse entirely.
func TestFailoverReadsSurviveDeadReplica(t *testing.T) {
	db := newTierDB(t)
	tier := New(db, Options{Replicas: 3, Conns: 2, Scale: 2000})
	defer tier.Close()
	c := tier.Conn()
	if err := tier.KillBackend(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := c.Query("SELECT v FROM kv WHERE id = 1"); err != nil {
			t.Fatalf("read %d failed with a dead replica: %v", i, err)
		}
	}
	failoverWait(t, "ejection", func() bool { return tier.Ejected() >= 1 })
	if out := tier.Ejected() - tier.Resyncs(); out != 1 {
		t.Fatalf("%d backends out of the read rotation, want 1", out)
	}
}

// TestFailoverEjectReintegrateReadYourWrites is the full convergence
// story: a replica dies and is ejected, writes continue against the
// survivors, the replica is revived, catches up, reintegrates — and
// read-your-writes holds again, with the revived replica serving the
// latest committed data.
func TestFailoverEjectReintegrateReadYourWrites(t *testing.T) {
	db := newTierDB(t)
	tier := New(db, Options{Replicas: 2, Conns: 2, Scale: 2000})
	defer tier.Close()
	c := tier.Conn()

	if err := tier.KillBackend(1); err != nil {
		t.Fatal(err)
	}
	failoverWait(t, "ejection", func() bool { return tier.Ejected() >= 1 })

	// Sync-mode writes must proceed with the replica out of rotation.
	for i := 0; i < 10; i++ {
		if _, err := c.Exec("INSERT INTO kv (id, v) VALUES (NULL, 'during-outage')"); err != nil {
			t.Fatalf("write %d during outage: %v", i, err)
		}
	}

	if err := tier.RestartBackend(1); err != nil {
		t.Fatal(err)
	}
	failoverWait(t, "reintegration", func() bool { return tier.Resyncs() >= 1 })

	// Back in rotation: a sync write now waits for the revived replica,
	// so its own data must be visible there immediately after Exec.
	res, err := c.Exec("INSERT INTO kv (id, v) VALUES (NULL, 'after-heal')")
	if err != nil {
		t.Fatal(err)
	}
	want, err := tier.Backends()[0].TableSize("kv")
	if err != nil {
		t.Fatal(err)
	}
	replica := tier.Backends()[1]
	if n, _ := replica.TableSize("kv"); n != want {
		t.Fatalf("replica size after heal = %d, primary = %d", n, want)
	}
	rc := replica.Connect()
	defer rc.Close()
	rs, err := rc.Query("SELECT v FROM kv WHERE id = ?", res.LastInsertID)
	if err != nil || rs.Len() != 1 || rs.Str(0, "v") != "after-heal" {
		t.Fatalf("replica missed the post-heal write: %d rows, err %v", rs.Len(), err)
	}
}

// TestAcquireTimeout proves pooled-connection acquisition no longer
// blocks forever: with the whole pool leaked away, a statement fails
// with the typed ErrAcquireTimeout after the paper-time deadline (10 s,
// 0.5 ms of wall time at this scale), and recovers once capacity
// returns.
func TestAcquireTimeout(t *testing.T) {
	db := newTierDB(t)
	tier := New(db, Options{Replicas: 1, Conns: 1, Scale: 20000})
	defer tier.Close()
	c := tier.Conn()

	if got := tier.LeakConns(0); got != 1 {
		t.Fatalf("LeakConns = %d, want 1", got)
	}
	if _, err := c.Query("SELECT v FROM kv WHERE id = 1"); !errors.Is(err, ErrAcquireTimeout) {
		t.Fatalf("starved query err = %v, want ErrAcquireTimeout", err)
	}
	if got := tier.ReleaseLeaked(); got != 1 {
		t.Fatalf("ReleaseLeaked = %d, want 1", got)
	}
	if _, err := c.Query("SELECT v FROM kv WHERE id = 1"); err != nil {
		t.Fatalf("query after release: %v", err)
	}
}

// TestSlowReplicaEjectedAndHealed proves the latency path of the health
// loop: an injected statement delay beyond slowThreshold (1 s) ejects
// the replica; clearing it brings the replica back.
func TestSlowReplicaEjectedAndHealed(t *testing.T) {
	db := newTierDB(t)
	tier := New(db, Options{Replicas: 2, Conns: 2, Scale: 2000})
	defer tier.Close()
	if err := tier.SetBackendDelay(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	failoverWait(t, "slow ejection", func() bool { return tier.Ejected() >= 1 })
	if err := tier.SetBackendDelay(1, 0); err != nil {
		t.Fatal(err)
	}
	failoverWait(t, "slow heal", func() bool { return tier.Resyncs() >= 1 })
	if out := tier.Ejected() - tier.Resyncs(); out != 0 {
		t.Fatalf("%d backends still out of the read rotation after heal, want 0", out)
	}
}

// TestResyncAfterLogTruncation forces the snapshot-resync path: the
// replication log is truncated past a dead replica's watermark, so on
// revival it cannot catch up by replay and must clone the primary.
func TestResyncAfterLogTruncation(t *testing.T) {
	db := newTierDB(t)
	// Three backends: the log is truncated by the surviving replica's
	// applier (the ejected one is excluded from the watermark), so the
	// truncation path needs a live replica besides the corpse.
	tier := New(db, Options{Replicas: 3, Conns: 2, Scale: 2000})
	defer tier.Close()
	c := tier.Conn()

	if err := tier.KillBackend(1); err != nil {
		t.Fatal(err)
	}
	failoverWait(t, "ejection", func() bool { return tier.Ejected() >= 1 })
	// With the dead replica out of every watermark, these writes both
	// commit and truncate the log past its applied position.
	for i := 0; i < 10; i++ {
		if _, err := c.Exec("INSERT INTO kv (id, v) VALUES (NULL, 'x')"); err != nil {
			t.Fatal(err)
		}
	}
	failoverWait(t, "log truncation past the corpse", func() bool {
		return tier.log.Base() > tier.replicas[0].applied.Load()
	})
	if err := tier.RestartBackend(1); err != nil {
		t.Fatal(err)
	}
	failoverWait(t, "snapshot resync", func() bool { return tier.Resyncs() >= 1 })
	want, _ := tier.Backends()[0].TableSize("kv")
	if n, _ := tier.Backends()[1].TableSize("kv"); n != want {
		t.Fatalf("resynced replica size = %d, primary = %d", n, want)
	}
}
