package sqldb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"stagedweb/internal/clock"
)

func mvccTestDB(t *testing.T, on bool) (*DB, *Conn) {
	t.Helper()
	db := OpenChecked(t, Options{Cost: ZeroCostModel()})
	db.SetMVCC(on)
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
	defer snap.Close()
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
	newRow := append([]Value(nil), view.version(id).data()...)
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
		if view.version(id) != nil {
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
	if tomb.cells != nil || tomb.prev.Load() == nil {
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
	if head := tbl.slotAt(0).head.Load(); head == tomb || head.cells != nil || head.prev.Load() != nil {
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
	db := OpenChecked(t, Options{Cost: ZeroCostModel()})
	db.MustCreateTable(Schema{
		Table:      "t",
		Columns:    []Column{{Name: "id", Type: Int}},
		PrimaryKey: "id",
	})
	c := db.Connect()
	defer c.Close()
	mustExec(t, c, "INSERT INTO t (id) VALUES (1)")

	// Twice the bound in distinct literal-inlined statements, two rounds.
	stmts := make([]string, 2*stmtCacheSize)
	for i := range stmts {
		stmts[i] = fmt.Sprintf("SELECT id FROM t WHERE id = %d", i+1)
	}
	for round := 0; round < 2; round++ {
		for _, q := range stmts {
			if _, err := c.Query(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := db.stmts.len(); got != stmtCacheSize {
		t.Fatalf("cache holds %d entries after %d distinct statements, want its bound %d", got, len(stmts), stmtCacheSize)
	}
	if db.StmtCacheMisses() == 0 {
		t.Fatalf("miss counter: misses=%d", db.StmtCacheMisses())
	}

	// Recency: the hot statement survives a flood of cold ones, more
	// than the bound of them.
	hot := stmts[0]
	for _, q := range stmts[1:] {
		if _, err := c.Query(hot); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := db.stmts.get(hot, db.idxEpoch.Load()); !ok {
		t.Fatal("hot statement evicted despite recency")
	}
	if db.StmtCacheHits() == 0 {
		t.Fatalf("hit counter never moved: hits=%d", db.StmtCacheHits())
	}
}

// TestReplLogWakesLateConsumer: appends with no drained consumer make
// and close no channel, a Since that returns entries hands none out, and
// a consumer that drains the log after several appends still wakes on
// the next one.
func TestReplLogWakesLateConsumer(t *testing.T) {
	l := newReplLog(0)
	for ts := int64(1); ts <= 3; ts++ {
		l.append(LogEntry{TS: ts})
	}
	if l.changed != nil {
		t.Fatal("appends with no consumer waiting left a channel")
	}
	if es, ch := l.Since(1); len(es) != 2 || ch != nil {
		t.Fatalf("Since with entries left: %d entries, channel %v", len(es), ch)
	}
	es, ch := l.Since(3)
	if len(es) != 0 || ch == nil {
		t.Fatalf("drained Since: %d entries, channel %v", len(es), ch)
	}
	select {
	case <-ch:
		t.Fatal("channel closed before the next append")
	default:
	}
	l.append(LogEntry{TS: 4})
	select {
	case <-ch:
	default:
		t.Fatal("the next append did not wake the consumer")
	}
}

func TestReplLog(t *testing.T) {
	db, c := mvccTestDB(t, true)
	l := db.EnableReplLog()
	base := db.CommitTS()

	mustExec(t, c, "UPDATE hot SET h_val = ? WHERE h_id = ?", 1, 1)
	// A SELECT between the DMLs appends nothing.
	mustQuery(t, c, "SELECT h_val FROM hot WHERE h_id = ?", 1)
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
	// Arguments arrive normalized to engine Values: a Go int is an int64.
	if args := entries[0].Args; len(args) != 2 || args[0] != int64(1) || args[1] != int64(1) {
		t.Fatalf("entry args = %#v", args)
	}

	// Blocking tail: a drained consumer wakes on the next append.
	tail, changed := l.Since(db.CommitTS())
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
	if len(l.entries) != 2 {
		t.Fatalf("log retains %d entries, want 2", len(l.entries))
	}

	// Disabling stops appends.
	db.DisableReplLog()
	mustExec(t, c, "UPDATE hot SET h_val = ? WHERE h_id = ?", 3, 1)
	if len(l.entries) != 2 {
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

// BenchmarkReadHotWriteHot times a primary-key SELECT on a 16-row table
// that two background writers keep updating. Every statement is charged
// 200 µs on clock.Precise, so a charge lasts what it says. The lock
// engine charges a writer's cost with the table's write lock held, so a
// reader waits out a writer as well as its own charge; the MVCC engine
// reads a snapshot and does not wait.
func BenchmarkReadHotWriteHot(b *testing.B) {
	for _, mode := range []struct {
		name string
		mvcc bool
	}{{"lock", false}, {"mvcc", true}} {
		b.Run(mode.name, func(b *testing.B) {
			db := OpenChecked(b, Options{Cost: &CostModel{PerStatement: 200 * time.Microsecond}, Clock: clock.Precise{}})
			db.SetMVCC(mode.mvcc)
			db.MustCreateTable(Schema{
				Table:      "hot",
				Columns:    []Column{{Name: "id", Type: Int}, {Name: "v", Type: Int}},
				PrimaryKey: "id",
			})
			seed := db.Connect()
			for i := 1; i <= 16; i++ {
				if _, err := seed.Exec("INSERT INTO hot (id, v) VALUES (?, 0)", i); err != nil {
					b.Fatal(err)
				}
			}
			seed.Close()
			stop := make(chan struct{})
			var writers sync.WaitGroup
			for range 2 {
				writers.Add(1)
				go func() {
					defer writers.Done()
					c := db.Connect()
					defer c.Close()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := c.Exec("UPDATE hot SET v = ? WHERE id = ?", i, i%16+1); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			c := db.Connect()
			defer c.Close()
			for i := 0; b.Loop(); i++ {
				if _, err := c.Query("SELECT v FROM hot WHERE id = ?", i%16+1); err != nil {
					b.Fatal(err)
				}
			}
			close(stop)
			writers.Wait()
			b.ReportMetric(float64(db.Conflicts()), "conflicts")
			b.ReportMetric(float64(db.SnapshotReads()), "snapshot-reads")
		})
	}
}
