package sqldb

import (
	"testing"
	"time"
)

func cloneTestDB(t *testing.T) (*DB, *Conn) {
	t.Helper()
	db := Open(Options{Cost: ZeroCostModel()})
	db.MustCreateTable(Schema{
		Table: "item",
		Columns: []Column{
			{Name: "i_id", Type: Int},
			{Name: "i_subject", Type: String},
			{Name: "i_cost", Type: Float},
		},
		PrimaryKey: "i_id",
		Indexes:    []string{"i_subject"},
	})
	c := db.Connect()
	t.Cleanup(c.Close)
	for i := 1; i <= 20; i++ {
		subject := "ARTS"
		if i%2 == 0 {
			subject = "BIO"
		}
		mustExec(t, c, "INSERT INTO item (i_id, i_subject, i_cost) VALUES (?, ?, ?)", i, subject, float64(i))
	}
	mustExec(t, c, "DELETE FROM item WHERE i_id = 7") // leave a tombstone
	return db, c
}

func TestCloneCopiesContents(t *testing.T) {
	db, _ := cloneTestDB(t)
	clone := db.Clone()

	cc := clone.Connect()
	defer cc.Close()
	rs, err := cc.Query("SELECT i_id, i_cost FROM item WHERE i_subject = ?", "ARTS")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 9 { // 10 odd ids minus the deleted 7
		t.Fatalf("clone ARTS rows = %d, want 9", rs.Len())
	}
	n, err := clone.TableSize("item")
	if err != nil || n != 19 {
		t.Fatalf("clone TableSize = %d, %v; want 19", n, err)
	}

	// Auto-increment state is copied: the next NULL-pk insert gets the
	// same id on both databases.
	c := db.Connect()
	defer c.Close()
	orig, err := c.Exec("INSERT INTO item (i_id, i_subject, i_cost) VALUES (NULL, 'NEW', 1.0)")
	if err != nil {
		t.Fatal(err)
	}
	cloned, err := cc.Exec("INSERT INTO item (i_id, i_subject, i_cost) VALUES (NULL, 'NEW', 1.0)")
	if err != nil {
		t.Fatal(err)
	}
	if orig.LastInsertID != cloned.LastInsertID {
		t.Fatalf("auto ids diverge: original %d, clone %d", orig.LastInsertID, cloned.LastInsertID)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	db, c := cloneTestDB(t)
	clone := db.Clone()
	mustExec(t, c, "UPDATE item SET i_cost = 99.0 WHERE i_id = 1")

	cc := clone.Connect()
	defer cc.Close()
	rs, err := cc.Query("SELECT i_cost FROM item WHERE i_id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Float(0, "i_cost"); got != 1.0 {
		t.Fatalf("clone saw the original's update: i_cost = %v", got)
	}
}

// TestCloneReplayReproducesLayout is the replica contract over the chunked
// arena and the pk index: a clone taken mid-stream that replays the
// replication log from its clone point ends with the primary's slot
// layout (tombstones in place), primary-key hints and auto-increment
// state. The table spans several slot chunks and carries outlier,
// re-used and moved keys.
func TestCloneReplayReproducesLayout(t *testing.T) {
	db := Open(Options{Cost: ZeroCostModel()})
	db.MustCreateTable(Schema{
		Table:      "t",
		Columns:    []Column{{Name: "id", Type: Int}, {Name: "v", Type: Int}},
		PrimaryKey: "id",
		Ordered:    []string{"v"},
	})
	log := db.EnableReplLog()
	c := db.Connect()
	defer c.Close()
	dml := func(from, to int) {
		for i := from; i < to; i++ {
			mustExec(t, c, "INSERT INTO t (id, v) VALUES (NULL, ?)", i%50)
			switch i % 40 {
			case 3:
				mustExec(t, c, "DELETE FROM t WHERE id = ?", i/2)
			case 9:
				mustExec(t, c, "INSERT INTO t (id, v) VALUES (?, ?)", (i-6)/2, -1) // re-uses the key deleted six rounds ago
			case 17:
				mustExec(t, c, "UPDATE t SET id = ? WHERE id = ?", -i, i-1) // moves a key out of the window
			case 25:
				mustExec(t, c, "UPDATE t SET v = ? WHERE id = ?", 1000+i, i-2)
			}
		}
	}
	dml(0, slotChunkSize+100)
	mustExec(t, c, "INSERT INTO t (id, v) VALUES (?, ?)", 1<<40, 0) // nextAuto jumps
	clone, asOf := db.CloneSnapshot()
	dml(slotChunkSize+100, 3*slotChunkSize)

	cc := clone.Connect()
	defer cc.Close()
	entries, _ := log.Since(asOf)
	for _, e := range entries {
		args := make([]any, len(e.Args))
		for i, a := range e.Args {
			args[i] = a
		}
		if _, err := cc.Exec(e.SQL, args...); err != nil {
			t.Fatalf("replay %q %v: %v", e.SQL, e.Args, err)
		}
	}

	pt, _ := db.lookupTable("t")
	ct, _ := clone.lookupTable("t")
	pv, cv := pt.view(latestTS), ct.view(latestTS)
	if pv.size() != cv.size() || pv.size() <= 3*slotChunkSize {
		t.Fatalf("slot counts: primary %d, clone %d", pv.size(), cv.size())
	}
	if live, _ := db.TableSize("t"); live >= pv.size() {
		t.Fatalf("%d live rows in %d slots: the script left no tombstone", live, pv.size())
	}
	for id := 0; id < pv.size(); id++ {
		prow, crow := pv.row(id), cv.row(id)
		if len(prow) != len(crow) || (prow != nil && (prow[0] != crow[0] || prow[1] != crow[1])) {
			t.Fatalf("slot %d: primary %v, clone %v", id, prow, crow)
		}
		if prow == nil {
			continue
		}
		key := prow[0].(int64)
		pid, pok := pv.lookupPK(key)
		cid, cok := cv.lookupPK(key)
		if !pok || !cok || pid != id || cid != id {
			t.Fatalf("key %d of slot %d: primary hint %d %v, clone hint %d %v", key, id, pid, pok, cid, cok)
		}
	}
	if pt.nextAuto != ct.nextAuto {
		t.Fatalf("nextAuto: primary %d, clone %d", pt.nextAuto, ct.nextAuto)
	}
	po := mustExec(t, c, "INSERT INTO t (id, v) VALUES (NULL, 1)")
	co := mustExec(t, cc, "INSERT INTO t (id, v) VALUES (NULL, 1)")
	if po.LastInsertID != co.LastInsertID || po.LastInsertID <= 1<<40 {
		t.Fatalf("auto ids after replay: primary %d, clone %d", po.LastInsertID, co.LastInsertID)
	}
}

func TestApplyHookFiresUnderWriteLock(t *testing.T) {
	db, c := cloneTestDB(t)
	type applied struct {
		sql  string
		args []Value
	}
	var got []applied
	db.SetApplyHook(func(sql string, args []Value) {
		got = append(got, applied{sql, args})
	})

	mustExec(t, c, "UPDATE item SET i_cost = ? WHERE i_id = ?", 5.5, 2)
	if _, err := c.Query("SELECT i_id FROM item WHERE i_id = 2"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, "DELETE FROM item WHERE i_id = 3")

	if len(got) != 2 {
		t.Fatalf("hook fired %d times, want 2 (SELECTs must not fire it)", len(got))
	}
	if got[0].sql != "UPDATE item SET i_cost = ? WHERE i_id = ?" {
		t.Fatalf("hook sql = %q", got[0].sql)
	}
	if len(got[0].args) != 2 || got[0].args[0] != 5.5 || got[0].args[1] != int64(2) {
		t.Fatalf("hook args = %#v", got[0].args)
	}

	// Removing the hook stops delivery.
	db.SetApplyHook(nil)
	mustExec(t, c, "DELETE FROM item WHERE i_id = 4")
	if len(got) != 2 {
		t.Fatalf("hook fired after removal")
	}
}

// TestCostDefaultsToDefaultModel pins the Options contract: nil means
// DefaultCostModel (as the docs always promised), while an explicitly
// zeroed model stays free.
func TestCostDefaultsToDefaultModel(t *testing.T) {
	if db := Open(Options{}); db.cost != DefaultCostModel() {
		t.Fatalf("unset Cost = %+v, want DefaultCostModel", db.cost)
	}
	if db := Open(Options{Cost: ZeroCostModel()}); db.cost != (CostModel{}) {
		t.Fatalf("ZeroCostModel Cost = %+v, want zero", db.cost)
	}
	custom := CostModel{PerStatement: time.Millisecond}
	if db := Open(Options{Cost: &custom}); db.cost != custom {
		t.Fatalf("explicit Cost = %+v, want %+v", db.cost, custom)
	}
}
