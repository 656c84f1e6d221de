package sqldb

import (
	"runtime"
	"testing"
)

// TestPlanRowsReadExact pins what PlanRowsRead advances by, statement by
// statement, to the amounts the engine reported when every access path
// added to the shared counter row by row. The rows are now counted in the
// statement's own context and flushed once, so the test also requires the
// total to be in the counter by the time the statement returns — for a
// statement that fails halfway as much as for one that succeeds.
func TestPlanRowsReadExact(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		db, c := planTestDB(t, mvcc)
		snap := db.Snapshot()
		for _, st := range []struct {
			name, sql string
			args      []any
			want      int64
			wantErr   bool
			exec      bool
			snapshot  bool
		}{
			{name: "pk join", want: 50,
				sql: "SELECT ol_qty, i_title FROM order_line JOIN item ON ol_i_id = i_id WHERE ol_o_id = ?", args: []any{7}},
			{name: "scan, pk join", want: 200,
				sql: "SELECT o_id, i_title FROM orders JOIN item ON o_c_id = i_id WHERE o_status = ?", args: []any{"SHIPPED"}},
			{name: "range walk", want: 270,
				sql: "SELECT ol_id FROM order_line WHERE ol_o_id > ?", args: []any{10}},
			{name: "scan and sort", want: 100,
				sql: "SELECT o_id, o_date FROM orders ORDER BY o_date DESC LIMIT 5"},
			{name: "full scan", want: 100,
				sql: "SELECT o_id FROM orders WHERE o_status = ?", args: []any{"PENDING"}},
			{name: "error halfway through a scan", want: 100, wantErr: true,
				sql: "SELECT o_id FROM orders WHERE o_status > ?", args: []any{5}},
			{name: "error before any access path", want: 0, wantErr: true,
				sql: "SELECT o_id FROM nowhere"},
			{name: "snapshot query", want: 50, snapshot: true,
				sql: "SELECT ol_qty, i_title FROM order_line JOIN item ON ol_i_id = i_id WHERE ol_o_id = ?", args: []any{7}},
			{name: "update by key", want: 1, exec: true,
				sql: "UPDATE orders SET o_status = ? WHERE o_id = ?", args: []any{"HELD", 3}},
			{name: "delete by range", want: 44, exec: true,
				sql: "DELETE FROM order_line WHERE ol_o_id > ?", args: []any{97}},
			{name: "insert", want: 0, exec: true,
				sql: "INSERT INTO item (i_id, i_title) VALUES (?, ?)", args: []any{51, "new"}},
		} {
			before := db.PlanRowsRead()
			var err error
			switch {
			case st.exec:
				_, err = c.Exec(st.sql, st.args...)
			case st.snapshot:
				_, err = snap.Query(st.sql, st.args...)
			default:
				_, err = c.Query(st.sql, st.args...)
			}
			if (err != nil) != st.wantErr {
				t.Fatalf("mvcc=%v %s: err = %v, want an error: %v", mvcc, st.name, err, st.wantErr)
			}
			if got := db.PlanRowsRead() - before; got != st.want {
				t.Errorf("mvcc=%v %s: PlanRowsRead advanced by %d, want %d", mvcc, st.name, got, st.want)
			}
		}
		snap.Close()
	}
}

// TestPlanRowsReadCountsConflictedAttempt drives an MVCC UPDATE into a
// first-writer-wins conflict and through its retry: the rows the aborted
// attempt read are counted, and are in the counter before that attempt
// reaches its commit — the test waits for exactly that to let the rival
// writer in.
func TestPlanRowsReadCountsConflictedAttempt(t *testing.T) {
	db, c := mvccTestDB(t, true)
	tbl, err := db.lookupTable("hot")
	if err != nil {
		t.Fatal(err)
	}
	before := db.PlanRowsRead()

	// Hold the commit critical section: the UPDATE reads its snapshot,
	// then queues behind us.
	db.commitMu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := c.Exec("UPDATE hot SET h_val = ? WHERE h_id = ?", 11, 5)
		done <- err
	}()
	for db.PlanRowsRead() == before {
		select {
		case err := <-done:
			t.Fatalf("UPDATE returned (%v) without reaching its commit", err)
		default:
			runtime.Gosched()
		}
	}
	// Commit a rival version of the same row, as another writer would.
	id, _ := tbl.pkHint(5)
	rival := append([]Value(nil), tbl.slotAt(id).version(latestTS).data()...)
	rival[1] = int64(9)
	ts := db.commitTS.Load() + 1
	tbl.applyUpdate(id, rival, ts, db.pruneHorizon())
	db.finishCommit(&execCtx{sql: "rival"}, ts)
	db.commitMu.Unlock()

	if err := <-done; err != nil {
		t.Fatalf("UPDATE after one conflict: %v", err)
	}
	if db.Conflicts() != 1 {
		t.Fatalf("Conflicts = %d, want 1", db.Conflicts())
	}
	if got := db.PlanRowsRead() - before; got != 2 {
		t.Fatalf("PlanRowsRead advanced by %d over a conflicted attempt and its retry, want 2", got)
	}
	rs := mustQuery(t, c, "SELECT h_group, h_val FROM hot WHERE h_id = ?", 5)
	if rs.Int(0, "h_group") != 9 || rs.Int(0, "h_val") != 11 {
		t.Fatalf("row 5 = %v, want group 9 (the rival's commit, read by the retry) and val 11", rs.Rows)
	}
}
