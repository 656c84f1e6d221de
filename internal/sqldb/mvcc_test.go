package sqldb

import (
	"errors"
	"sync"
	"testing"
	"time"

	"stagedweb/internal/clock"
)

func mvccTestDB(t *testing.T, on bool) (*DB, *Conn) {
	t.Helper()
	db := Open(Options{Cost: ZeroCostModel(), MVCC: on})
	db.MustCreateTable(Schema{
		Table: "hot",
		Columns: []Column{
			{Name: "h_id", Type: Int},
			{Name: "h_group", Type: Int},
			{Name: "h_val", Type: Int},
		},
		PrimaryKey: "h_id",
		Indexes:    []string{"h_group"},
	})
	c := db.Connect()
	t.Cleanup(c.Close)
	for i := 1; i <= 64; i++ {
		mustExec(t, c, "INSERT INTO hot (h_id, h_group, h_val) VALUES (?, ?, ?)", i, 1, 0)
	}
	return db, c
}

func TestMVCCSnapshotIsolation(t *testing.T) {
	db, c := mvccTestDB(t, true)
	snap := db.Snapshot()
	mustExec(t, c, "UPDATE hot SET h_val = ? WHERE h_id = ?", 42, 1)

	rs, err := snap.Query("SELECT h_val FROM hot WHERE h_id = ?", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Int(0, "h_val"); got != 0 {
		t.Fatalf("snapshot saw a later write: h_val = %d, want 0", got)
	}
	rs = mustQuery(t, c, "SELECT h_val FROM hot WHERE h_id = ?", 1)
	if got := rs.Int(0, "h_val"); got != 42 {
		t.Fatalf("fresh read h_val = %d, want 42", got)
	}
	if db.SnapshotReads() == 0 {
		t.Fatal("SnapshotReads did not count")
	}
}

func TestMVCCTimeTravel(t *testing.T) {
	db, c := mvccTestDB(t, true)
	// Pin a snapshot after each commit; open snapshots hold version GC,
	// so every pinned state stays resolvable until Close.
	snaps := []*Snapshot{db.Snapshot()}
	wants := []int64{0}
	lastTS := db.CommitTS()
	for _, v := range []int64{10, 20, 30} {
		res := mustExec(t, c, "UPDATE hot SET h_val = ? WHERE h_id = ?", v, 5)
		if res.CommitTS != lastTS+1 {
			t.Fatalf("CommitTS = %d, want %d", res.CommitTS, lastTS+1)
		}
		lastTS = res.CommitTS
		snaps = append(snaps, db.Snapshot())
		wants = append(wants, v)
	}
	for i, snap := range snaps {
		rs, err := snap.Query("SELECT h_val FROM hot WHERE h_id = ?", 5)
		if err != nil {
			t.Fatal(err)
		}
		if got := rs.Int(0, "h_val"); got != wants[i] {
			t.Fatalf("at ts %d: h_val = %d, want %d", snap.TS(), got, wants[i])
		}
		snap.Close()
	}
}

// TestMVCCConflictDetection drives the commit protocol directly: a
// write set collected at a stale snapshot must fail first-writer-wins
// validation once another writer commits to the same slot.
func TestMVCCConflictDetection(t *testing.T) {
	db, c := mvccTestDB(t, true)
	tbl, err := db.lookupTable("hot")
	if err != nil {
		t.Fatal(err)
	}
	stale := db.CommitTS()
	view := tbl.view(stale)
	id, ok := view.lookupPK(3)
	if !ok {
		t.Fatal("pk 3 not found")
	}
	newRow := append([]Value(nil), view.row(id)...)
	newRow[2] = int64(7)

	// Another writer commits to the same row after our snapshot.
	mustExec(t, c, "UPDATE hot SET h_val = ? WHERE h_id = ?", 99, 3)

	ec := &execCtx{sql: "UPDATE hot SET h_val = ? WHERE h_id = ?", args: []Value{int64(7), int64(3)}}
	_, err = db.commitWrites(tbl, stale, []rowWrite{{id: id, row: newRow}}, nil, ec, true)
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("stale commit err = %v, want ErrWriteConflict", err)
	}
	if db.Conflicts() != 1 {
		t.Fatalf("Conflicts = %d, want 1", db.Conflicts())
	}
	// The conflicted statement must not have installed anything.
	rs := mustQuery(t, c, "SELECT h_val FROM hot WHERE h_id = ?", 3)
	if got := rs.Int(0, "h_val"); got != 99 {
		t.Fatalf("h_val = %d, want the winner's 99", got)
	}
}

// TestMVCCConflictRetry: concurrent single-row writers all succeed at
// the statement level — Conn.Exec absorbs conflicts by re-executing on
// a fresh snapshot — and the row ends at one of the written values.
func TestMVCCConflictRetry(t *testing.T) {
	db, _ := mvccTestDB(t, true)
	const writers = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := db.Connect()
			defer c.Close()
			for i := 0; i < iters; i++ {
				if _, err := c.Exec("UPDATE hot SET h_val = ? WHERE h_id = ?", w*1000+i, 9); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("writer failed: %v", err)
	}
	c := db.Connect()
	defer c.Close()
	rs := mustQuery(t, c, "SELECT h_val FROM hot WHERE h_id = ?", 9)
	got := rs.Int(0, "h_val")
	if got%1000 != iters-1 {
		t.Fatalf("final h_val = %d, want some writer's last value", got)
	}
}

// TestMVCCStressSnapshotConsistency is the -race stress test: many
// readers and multi-row writers on one hot table. Every UPDATE sets all
// 64 rows of the group to one value in a single statement, so any
// consistent snapshot must observe 64 rows that all agree — a reader
// that ever sees a half-applied update fails. Runs under both
// concurrency modes (lock mode serializes through the table lock; MVCC
// through snapshots and first-writer-wins commits).
func TestMVCCStressSnapshotConsistency(t *testing.T) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"mvcc", true}, {"lock", false}} {
		t.Run(mode.name, func(t *testing.T) {
			db, _ := mvccTestDB(t, mode.on)
			const readers = 6
			const writers = 3
			const writes = 40
			var wg sync.WaitGroup
			done := make(chan struct{})
			fail := make(chan string, readers+writers)

			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c := db.Connect()
					defer c.Close()
					for i := 0; i < writes; i++ {
						v := w*writes + i + 1
						if _, err := c.Exec("UPDATE hot SET h_val = ? WHERE h_group = ?", v, 1); err != nil {
							fail <- "writer: " + err.Error()
							return
						}
					}
				}(w)
			}
			var rg sync.WaitGroup
			for r := 0; r < readers; r++ {
				rg.Add(1)
				go func() {
					defer rg.Done()
					c := db.Connect()
					defer c.Close()
					for {
						select {
						case <-done:
							return
						default:
						}
						rs, err := c.Query("SELECT h_val FROM hot WHERE h_group = ?", 1)
						if err != nil {
							fail <- "reader: " + err.Error()
							return
						}
						if rs.Len() != 64 {
							fail <- "reader: snapshot dropped rows"
							return
						}
						first := rs.Int(0, "h_val")
						for i := 1; i < rs.Len(); i++ {
							if rs.Int(i, "h_val") != first {
								fail <- "reader: half-applied multi-row UPDATE visible"
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(done)
			rg.Wait()
			select {
			case msg := <-fail:
				t.Fatal(msg)
			default:
			}
			if mode.on {
				t.Logf("conflicts absorbed by retry: %d", db.Conflicts())
			}
		})
	}
}

// TestLookupIndexStableSnapshot pins the satellite fix: an index bucket
// handed to a reader is immutable — later inserts and deletes on the
// same value never mutate it (the old implementation swap-deleted in
// place and returned the live backing slice).
func TestLookupIndexStableSnapshot(t *testing.T) {
	db, c := mvccTestDB(t, true)
	tbl, err := db.lookupTable("hot")
	if err != nil {
		t.Fatal(err)
	}
	view := tbl.view(db.CommitTS())
	var buf []int
	ids, _, ok := view.lookupIndex("h_group", int64(1), &buf)
	if !ok || len(ids) != 64 {
		t.Fatalf("bucket = %d ids, ok=%v; want 64", len(ids), ok)
	}
	before := append([]int(nil), ids...)

	mustExec(t, c, "DELETE FROM hot WHERE h_id = ?", 1)
	for i := 100; i < 110; i++ {
		mustExec(t, c, "INSERT INTO hot (h_id, h_group, h_val) VALUES (?, ?, ?)", i, 1, 0)
	}
	if len(ids) != len(before) {
		t.Fatalf("handed-out bucket length changed: %d -> %d", len(before), len(ids))
	}
	for i := range ids {
		if ids[i] != before[i] {
			t.Fatalf("handed-out bucket mutated at %d: %d -> %d", i, before[i], ids[i])
		}
	}
	// And the view still resolves exactly its snapshot's rows through it.
	live := 0
	for _, id := range ids {
		if view.row(id) != nil {
			live++
		}
	}
	if live != 64 {
		t.Fatalf("snapshot view resolves %d rows, want 64 despite later delete", live)
	}
}

// TestStmtCacheLRU pins the satellite fix: non-parameterized SQL cannot
// grow the statement cache without bound, and hit/miss counters work.
// TestIndexProbeDuringInserts is the regression test for the unlocked
// hash-index probe: lookupIndex used to read the index map after
// releasing idxMu while a committing INSERT wrote it ("concurrent map
// read and map write" under mvcc=on, where readers take no table lock).
// Two writers insert into the indexed table while readers run indexed
// point SELECTs; run under -race.
func TestIndexProbeDuringInserts(t *testing.T) {
	db, _ := mvccTestDB(t, true)
	const writers, perWriter, readers = 2, 300, 2
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := db.Connect()
			defer c.Close()
			for g := 0; ; g++ {
				select {
				case <-stop:
					return
				default:
				}
				rs, err := c.Query("SELECT h_id FROM hot WHERE h_group = ?", 2+g%8)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range rs.Rows {
					if id := rs.Int(i, "h_id"); (id-1000)%8 != int64(g%8) {
						t.Errorf("group %d returned row %d", 2+g%8, id)
						return
					}
				}
			}
		}()
	}
	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			c := db.Connect()
			defer c.Close()
			for i := 0; i < perWriter; i++ {
				id := 1000 + w*perWriter + i
				if _, err := c.Exec("INSERT INTO hot (h_id, h_group, h_val) VALUES (?, ?, ?)", id, 2+(id-1000)%8, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writing.Wait()
	close(stop)
	wg.Wait()
	c := db.Connect()
	defer c.Close()
	if got := mustQuery(t, c, "SELECT h_id FROM hot WHERE h_group = ?", 2).Len(); got != writers*perWriter/8 {
		t.Fatalf("group 2 has %d rows after the inserts, want %d", got, writers*perWriter/8)
	}
}

// TestTombstonesReleaseDeletedRows checks both sides of tombstone
// reaping: a deleted row stays readable for a snapshot pinned before the
// DELETE, and is unlinked by the first UPDATE/DELETE commit on the table
// after the last such snapshot is gone.
func TestTombstonesReleaseDeletedRows(t *testing.T) {
	db, c := mvccTestDB(t, true)
	tbl, err := db.lookupTable("hot")
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	mustExec(t, c, "DELETE FROM hot WHERE h_id = ?", 1)
	tomb := tbl.slotAt(0).head.Load()
	if tomb.data != nil || tomb.prev.Load() == nil {
		t.Fatalf("slot 0 head is not a tombstone over the deleted version: %+v", tomb)
	}

	mustExec(t, c, "UPDATE hot SET h_val = ? WHERE h_id = ?", 7, 2)
	if tomb.prev.Load() == nil {
		t.Fatal("deleted version unlinked while a snapshot older than the DELETE is pinned")
	}
	if rs, err := snap.Query("SELECT h_id FROM hot WHERE h_id = ?", 1); err != nil || rs.Len() != 1 {
		t.Fatalf("pinned snapshot lost the deleted row: %v rows, err %v", rs.Len(), err)
	}

	snap.Close()
	mustExec(t, c, "UPDATE hot SET h_val = ? WHERE h_id = ?", 8, 2)
	if head := tbl.slotAt(0).head.Load(); head == tomb || head.data != nil || head.prev.Load() != nil {
		t.Fatalf("deleted version still linked after the horizon passed its tombstone: %+v", head)
	}
	if len(tbl.tombs) != 0 {
		t.Fatalf("%d tombstones still queued", len(tbl.tombs))
	}
	if rs := mustQuery(t, c, "SELECT h_id FROM hot WHERE h_id = ?", 1); rs.Len() != 0 {
		t.Fatalf("deleted row came back: %v", rs.Rows)
	}
}

func TestStmtCacheLRU(t *testing.T) {
	db := Open(Options{Cost: ZeroCostModel(), StmtCacheSize: 8})
	db.MustCreateTable(Schema{
		Table:      "t",
		Columns:    []Column{{Name: "id", Type: Int}},
		PrimaryKey: "id",
	})
	c := db.Connect()
	defer c.Close()
	mustExec(t, c, "INSERT INTO t (id) VALUES (1)")

	// 40 distinct literal-inlined statements through a cap-8 cache.
	stmts := []string{
		"SELECT id FROM t WHERE id = 1", "SELECT id FROM t WHERE id = 2",
		"SELECT id FROM t WHERE id = 3", "SELECT id FROM t WHERE id = 4",
		"SELECT id FROM t WHERE id = 5", "SELECT id FROM t WHERE id = 6",
		"SELECT id FROM t WHERE id = 7", "SELECT id FROM t WHERE id = 8",
		"SELECT id FROM t WHERE id = 9", "SELECT id FROM t WHERE id = 10",
	}
	for round := 0; round < 4; round++ {
		for _, q := range stmts {
			if _, err := c.Query(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := db.StmtCacheLen(); got > 8 {
		t.Fatalf("cache grew past its bound: %d entries, cap 8", got)
	}
	if db.StmtCacheMisses() == 0 {
		t.Fatalf("miss counter: misses=%d", db.StmtCacheMisses())
	}

	// Recency: the hot statement survives a flood of cold ones.
	hot := "SELECT id FROM t WHERE id = 1"
	for i := 0; i < 7; i++ {
		if _, err := c.Query(hot); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Query(stmts[1+i%9]); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := db.stmts.get(hot, db.IndexEpoch()); !ok {
		t.Fatal("hot statement evicted despite recency")
	}
	if db.StmtCacheHits() == 0 {
		t.Fatalf("hit counter never moved: hits=%d", db.StmtCacheHits())
	}
}

// TestQueryTimesUseInjectedClock pins the satellite fix: the
// per-statement latency histogram records durations on the DB's
// injected clock, not wall time. Under clock.Manual a 3s-cost statement
// must record ~3s even though almost no wall time passes.
func TestQueryTimesUseInjectedClock(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	cost := CostModel{PerStatement: 3 * time.Second}
	db := Open(Options{Clock: clk, Cost: &cost})
	db.MustCreateTable(Schema{
		Table:      "t",
		Columns:    []Column{{Name: "id", Type: Int}},
		PrimaryKey: "id",
	})
	c := db.Connect()
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Exec("INSERT INTO t (id) VALUES (1)")
		done <- err
	}()
	clk.BlockUntilWaiters(1)
	clk.Advance(3 * time.Second)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := db.QueryTimes().Max(); got < 2*time.Second {
		t.Fatalf("QueryTimes.Max = %v; wall-clock timing snuck back in (want ~3s of manual-clock time)", got)
	}
}

func TestReplLog(t *testing.T) {
	db, c := mvccTestDB(t, true)
	l := db.EnableReplLog()
	base := db.CommitTS()

	mustExec(t, c, "UPDATE hot SET h_val = ? WHERE h_id = ?", 1, 1)
	mustExec(t, c, "DELETE FROM hot WHERE h_id = ?", 2)
	// A zero-row statement still logs: timestamps stay dense.
	mustExec(t, c, "UPDATE hot SET h_val = ? WHERE h_id = ?", 1, 100000)

	entries, _ := l.Since(base)
	if len(entries) != 3 {
		t.Fatalf("log has %d entries, want 3", len(entries))
	}
	for i, e := range entries {
		if e.TS != base+int64(i)+1 {
			t.Fatalf("entry %d TS = %d, want dense from base %d", i, e.TS, base)
		}
	}
	if entries[1].SQL != "DELETE FROM hot WHERE h_id = ?" {
		t.Fatalf("entry SQL = %q", entries[1].SQL)
	}

	// Blocking tail: a drained consumer wakes on the next append.
	tail, changed := l.Since(l.LatestTS())
	if tail != nil {
		t.Fatalf("drained Since returned %d entries", len(tail))
	}
	go func() { mustExec(t, c, "UPDATE hot SET h_val = ? WHERE h_id = ?", 2, 1) }()
	select {
	case <-changed:
	case <-time.After(5 * time.Second):
		t.Fatal("append did not wake the tail consumer")
	}

	// Truncation through a watermark drops only what it should.
	l.TruncateThrough(base + 2)
	rest, _ := l.Since(base + 2)
	if len(rest) != 2 || rest[0].TS != base+3 {
		t.Fatalf("after truncate: %d entries, first TS %v", len(rest), rest[0].TS)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}

	// Disabling stops appends.
	db.DisableReplLog()
	mustExec(t, c, "UPDATE hot SET h_val = ? WHERE h_id = ?", 3, 1)
	if l.Len() != 2 {
		t.Fatalf("log grew after DisableReplLog")
	}
}

// TestMVCCPKReuseAfterDelete: deleting a row and re-inserting its key
// must work (the pk map entry is a stale hint that gets remapped), and
// the new row must be visible.
func TestMVCCPKReuseAfterDelete(t *testing.T) {
	db, c := mvccTestDB(t, true)
	mustExec(t, c, "DELETE FROM hot WHERE h_id = ?", 10)
	res := mustExec(t, c, "INSERT INTO hot (h_id, h_group, h_val) VALUES (?, ?, ?)", 10, 1, 777)
	if res.LastInsertID != 10 {
		t.Fatalf("LastInsertID = %d", res.LastInsertID)
	}
	rs := mustQuery(t, c, "SELECT h_val FROM hot WHERE h_id = ?", 10)
	if rs.Len() != 1 || rs.Int(0, "h_val") != 777 {
		t.Fatalf("reinserted row: %d rows, val %d", rs.Len(), rs.Int(0, "h_val"))
	}
	// Duplicate insert of a live key still errors.
	if _, err := c.Exec("INSERT INTO hot (h_id, h_group, h_val) VALUES (?, ?, ?)", 10, 1, 0); err == nil {
		t.Fatal("duplicate pk insert succeeded")
	}
	if n, _ := db.TableSize("hot"); n != 64 {
		t.Fatalf("TableSize = %d, want 64", n)
	}
}
