package sqldb

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// keyTestDB is a table t(id, v) keyed by id plus a table o whose row i
// points at t's key i, for primary-key joins: o drives through its own
// key and probes t's.
func keyTestDB(t *testing.T, mvcc bool) (*DB, *Conn) {
	t.Helper()
	db := OpenChecked(t, Options{Cost: ZeroCostModel()})
	db.SetMVCC(mvcc)
	db.MustCreateTable(Schema{
		Table:      "t",
		Columns:    []Column{{Name: "id", Type: Int}, {Name: "v", Type: String}},
		PrimaryKey: "id",
	})
	db.MustCreateTable(Schema{
		Table:      "o",
		Columns:    []Column{{Name: "o_id", Type: Int}, {Name: "o_t", Type: Int}},
		PrimaryKey: "o_id",
	})
	c := db.Connect()
	t.Cleanup(c.Close)
	return db, c
}

// cells flattens a result to its values, for comparison.
func cells(rs *ResultSet) []Value {
	var out []Value
	for _, row := range rs.Rows {
		out = append(out, row...)
	}
	return out
}

// TestSnapshotPKProbeFindsReusedKey: a key given out again after a
// snapshot was taken — to a new row, or to an old row whose key moved —
// leaves the primary-key index pointing at a slot that does not hold the
// key at that snapshot. The probe must still find the row that did, as a
// scan at the same snapshot does, through a point lookup and through a
// join alike.
func TestSnapshotPKProbeFindsReusedKey(t *testing.T) {
	reuses := []struct {
		name  string
		reuse []string
		now   string // v of key 1 after the reuse
	}{
		{"delete+reinsert", []string{"DELETE FROM t WHERE id = 1", "INSERT INTO t (id, v) VALUES (1, 'new')"}, "new"},
		{"move-onto-deleted", []string{"DELETE FROM t WHERE id = 1", "UPDATE t SET id = 1 WHERE id = 2"}, "two"},
	}
	lookups := []struct{ name, sql string }{
		{"point", "SELECT v FROM t WHERE id = ?"},
		{"pkjoin", "SELECT v FROM o JOIN t ON o_t = id WHERE o_id = ?"},
	}
	for _, mvcc := range []bool{false, true} {
		for _, re := range reuses {
			for _, lk := range lookups {
				t.Run(fmt.Sprintf("mvcc=%v/%s/%s", mvcc, lk.name, re.name), func(t *testing.T) {
					db, c := keyTestDB(t, mvcc)
					mustExec(t, c, "INSERT INTO t (id, v) VALUES (1, 'old')")
					mustExec(t, c, "INSERT INTO t (id, v) VALUES (2, 'two')")
					mustExec(t, c, "INSERT INTO o (o_id, o_t) VALUES (1, 1)")
					mustExec(t, c, "INSERT INTO o (o_id, o_t) VALUES (2, 2)")
					snap := db.Snapshot()
					defer snap.Close()
					for _, sql := range re.reuse {
						mustExec(t, c, sql)
					}

					query := func(q interface {
						Query(string, ...any) (*ResultSet, error)
					}, sql string, args ...any) []Value {
						t.Helper()
						rs, err := q.Query(sql, args...)
						if err != nil {
							t.Fatalf("%s: %v", sql, err)
						}
						return cells(rs)
					}
					if got := query(snap, "SELECT v FROM t WHERE v = 'old'"); !slices.Equal(got, []Value{"old"}) {
						t.Fatalf("scan at the snapshot = %v, want [old]", got)
					}
					if got := query(snap, lk.sql, 1); !slices.Equal(got, []Value{"old"}) {
						t.Errorf("key 1 at the snapshot = %v, want [old]", got)
					}
					if got := query(snap, lk.sql, 2); !slices.Equal(got, []Value{"two"}) {
						t.Errorf("key 2 at the snapshot = %v, want [two]", got)
					}
					if got := query(c, lk.sql, 1); !slices.Equal(got, []Value{re.now}) {
						t.Errorf("key 1 now = %v, want [%s]", got, re.now)
					}
				})
			}
		}
	}
}

// TestRowVersionIsOneCacheLine pins the layout table.go is built on: a
// version is 64 bytes, the size class whose objects are line-aligned, so
// that all a scan reads off it before it touches the row's cells (begin,
// key, int slots, codes) is one cache line.
func TestRowVersionIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(rowVersion{}); n != 64 {
		t.Fatalf("rowVersion is %d bytes, want 64", n)
	}
}

// versionKeyErrors lists every live version, old ones included, whose key
// is not its primary-key cell.
func versionKeyErrors(db *DB) []string {
	var errs []string
	for name, tbl := range db.tables {
		if tbl.pkCol < 0 {
			continue
		}
		arena := tbl.slots.Load()
		for id := 0; id < arena.n; id++ {
			for v := arena.at(id).head.Load(); v != nil; v = v.prev.Load() {
				if v.cells != nil && v.data()[tbl.pkCol] != v.key {
					errs = append(errs, fmt.Sprintf("%s slot %d: key %d, cell %v", name, id, v.key, v.data()[tbl.pkCol]))
				}
			}
		}
	}
	return errs
}

// TestVersionKeyMatchesPrimaryKey: every version carries its row's key —
// made by insert (given or auto-assigned), by update (the key kept or
// moved), by CloneSnapshot, and by a replica replaying the log.
func TestVersionKeyMatchesPrimaryKey(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		t.Run(fmt.Sprintf("mvcc=%v", mvcc), func(t *testing.T) {
			db, c := keyTestDB(t, mvcc)
			log := db.EnableReplLog()
			snap := db.Snapshot() // keeps old versions in the chains
			defer snap.Close()
			// Keys i%5 == 0 move to -(i+1); keys i%5 == 2 keep theirs
			// through an update, are deleted and are given out again. Each
			// run ends with an auto-assigned key.
			dml := func(from, to int) {
				for i := from; i < to; i++ {
					mustExec(t, c, "INSERT INTO t (id, v) VALUES (?, ?)", i, fmt.Sprint(i))
					switch i % 5 {
					case 1:
						mustExec(t, c, "UPDATE t SET id = ? WHERE id = ?", -i, i-1)
					case 2:
						mustExec(t, c, "UPDATE t SET v = 'x' WHERE id = ?", i)
					case 3:
						mustExec(t, c, "DELETE FROM t WHERE id = ?", i-1)
					case 4:
						mustExec(t, c, "INSERT INTO t (id, v) VALUES (?, 'again')", i-2)
					}
				}
				mustExec(t, c, "INSERT INTO t (id, v) VALUES (NULL, 'auto')")
			}
			dml(1, 200)
			clone, asOf := db.CloneSnapshot()
			if errs := versionKeyErrors(clone); len(errs) > 0 {
				t.Fatalf("clone: %v", errs)
			}
			dml(201, 400)
			entries, _ := log.Since(asOf)
			cc := clone.Connect()
			defer cc.Close()
			for _, e := range entries {
				args := make([]any, len(e.Args))
				for i, a := range e.Args {
					args[i] = a
				}
				if _, err := cc.Exec(e.SQL, args...); err != nil {
					t.Fatalf("replay %q %v: %v", e.SQL, e.Args, err)
				}
			}
			if errs := versionKeyErrors(db); len(errs) > 0 {
				t.Fatalf("primary: %v", errs)
			}
			if errs := versionKeyErrors(clone); len(errs) > 0 {
				t.Fatalf("replica: %v", errs)
			}
		})
	}
}

// TestPKProbeAtSnapshotsWhileKeysReused runs snapshot readers against a
// writer that deletes, re-inserts and moves a few keys while it appends
// fresh rows across several slot chunks. At every snapshot, a point
// lookup and a primary-key join must agree with a scan at the same
// snapshot about each of the reused keys. Run under -race.
func TestPKProbeAtSnapshotsWhileKeysReused(t *testing.T) {
	const keys = 8
	for _, mvcc := range []bool{false, true} {
		t.Run(fmt.Sprintf("mvcc=%v", mvcc), func(t *testing.T) {
			db, w := keyTestDB(t, mvcc)
			for k := 1; k <= keys; k++ {
				mustExec(t, w, "INSERT INTO t (id, v) VALUES (?, ?)", k, fmt.Sprint("v", k))
				mustExec(t, w, "INSERT INTO o (o_id, o_t) VALUES (?, ?)", k, k)
			}
			var stop atomic.Bool
			var checks atomic.Int64
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// At least one check each, however soon the writer is done.
					for {
						if !snapshotAgrees(t, db, keys) {
							return
						}
						checks.Add(1)
						if stop.Load() {
							return
						}
					}
				}()
			}
			rng := rand.New(rand.NewSource(1))
			present := map[int]bool{}
			for k := 1; k <= keys; k++ {
				present[k] = true
			}
			for i := 0; i < 3*slotChunkSize; i++ {
				mustExec(t, w, "INSERT INTO t (id, v) VALUES (?, 'fresh')", 1000+i)
				k, k2 := 1+rng.Intn(keys), 1+rng.Intn(keys)
				switch {
				case !present[k]:
					mustExec(t, w, "INSERT INTO t (id, v) VALUES (?, ?)", k, fmt.Sprint("i", i))
					present[k] = true
				case !present[k2]:
					mustExec(t, w, "UPDATE t SET id = ? WHERE id = ?", k2, k)
					present[k], present[k2] = false, true
				default:
					mustExec(t, w, "DELETE FROM t WHERE id = ?", k)
					present[k] = false
				}
			}
			stop.Store(true)
			wg.Wait()
			if checks.Load() == 0 {
				t.Fatal("no reader finished a check")
			}
		})
	}
}

// snapshotAgrees takes a snapshot and compares, for keys 1..keys, what a
// scan sees with what a point lookup and a join through the key see.
func snapshotAgrees(t *testing.T, db *DB, keys int) bool {
	snap := db.Snapshot()
	defer snap.Close()
	rs, err := snap.Query("SELECT id, v FROM t WHERE id > ?", 0) // every key is 1..keys
	if err != nil {
		t.Error(err)
		return false
	}
	scanned := map[int64]Value{}
	for _, row := range rs.Rows {
		scanned[row[0].(int64)] = row[1]
	}
	for k := int64(1); k <= int64(keys); k++ {
		var want []Value
		if v, ok := scanned[k]; ok {
			want = []Value{v}
		}
		for _, sql := range []string{"SELECT v FROM t WHERE id = ?", "SELECT v FROM o JOIN t ON o_t = id WHERE o_id = ?"} {
			rs, err := snap.Query(sql, k)
			if err != nil {
				t.Error(err)
				return false
			}
			if got := cells(rs); !slices.Equal(got, want) {
				t.Errorf("snapshot %d, key %d: %q returned %v, the scan %v", snap.TS(), k, sql, got, want)
				return false
			}
		}
	}
	return true
}

// TestStringDictionaryCutoff: a String column's cells share one box per
// string, through inserts, updates and clones, until the column has seen
// maxDictValues distinct strings; the next one drops the dictionary for
// good.
func TestStringDictionaryCutoff(t *testing.T) {
	db := OpenChecked(t, Options{Cost: ZeroCostModel()})
	db.MustCreateTable(Schema{
		Table:      "d",
		Columns:    []Column{{Name: "id", Type: Int}, {Name: "s", Type: String}, {Name: "n", Type: Int}},
		PrimaryKey: "id",
	})
	c := db.Connect()
	defer c.Close()
	for i := 0; i < 2*maxDictValues; i++ {
		mustExec(t, c, "INSERT INTO d (id, s, n) VALUES (?, ?, ?)", i, fmt.Sprint("s", i%maxDictValues), i)
	}
	mustExec(t, c, "INSERT INTO d (id, s, n) VALUES (?, NULL, -1)", 2*maxDictValues)
	mustExec(t, c, "UPDATE d SET s = 's7' WHERE n > ?", 2*maxDictValues-4)
	if n, shared, err := StringDict(db, "d", "s"); err != nil || n != maxDictValues || !shared {
		t.Fatalf("after %d distinct strings: %d entries, shared %v, err %v; want %d, true", maxDictValues, n, shared, err, maxDictValues)
	}
	rs := mustQuery(t, c, "SELECT s FROM d WHERE s = 's7'")
	if rs.Len() != 5 {
		t.Fatalf("%d rows hold s7, want 5", rs.Len())
	}
	for _, row := range rs.Rows[1:] {
		if boxOf(row[0]) != boxOf(rs.Rows[0][0]) {
			t.Fatal("two cells holding s7 have two boxes")
		}
	}
	clone := db.Clone()
	if n, shared, _ := StringDict(clone, "d", "s"); n != maxDictValues || !shared {
		t.Fatalf("clone: %d entries, shared %v", n, shared)
	}

	mustExec(t, c, "INSERT INTO d (id, s, n) VALUES (?, 'one too many', 0)", 3*maxDictValues)
	mustExec(t, c, "INSERT INTO d (id, s, n) VALUES (?, 's7', 0)", 3*maxDictValues+1)
	if n, _, _ := StringDict(db, "d", "s"); n != -1 {
		t.Fatalf("after %d distinct strings the dictionary holds %d", maxDictValues+1, n)
	}
	if n, _, _ := StringDict(clone, "d", "s"); n != maxDictValues {
		t.Fatalf("the clone's dictionary followed the original's: %d entries", n)
	}
	rs = mustQuery(t, c, "SELECT s FROM d WHERE s = 's7'")
	if rs.Len() != 6 {
		t.Fatalf("%d rows hold s7 after the cut-off, want 6", rs.Len())
	}
}
