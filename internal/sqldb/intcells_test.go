package sqldb_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"stagedweb/internal/sqldb"
)

// The first two Int columns of a table besides its primary key carry
// their cells in the row versions: an = or > conjunct on one compares an
// int64 operand there, and a primary-key join step reads its key there
// (or from the version's key, when the outer column is the primary key).
// These tests hold both to the plain evaluation: a twin database whose
// tables have two padding Int columns right after the primary key, so
// that the same columns carry no slot, must answer every statement with
// the same rows, in the same order, the same error and the same cost
// counts.

// intDB opens the three-table schema the differential runs on. o's o_a
// (hash-indexed, the join column into i) and o_b (unindexed, with NULLs
// and the extreme int64s) and i's i_a (the join column into a) and i_n
// are slotted; o_c, an Int column after them, and o_f, a Float join
// column, are not. A twin's padding columns take the slots instead.
func intDB(t *testing.T, mvcc, twin bool) (*sqldb.DB, *sqldb.Conn) {
	t.Helper()
	db := sqldb.OpenChecked(t, sqldb.Options{Cost: sqldb.ZeroCostModel()})
	db.SetMVCC(mvcc)
	cols := func(key string, rest ...sqldb.Column) []sqldb.Column {
		out := []sqldb.Column{{Name: key, Type: sqldb.Int}}
		if twin {
			out = append(out, sqldb.Column{Name: key + "_pad1", Type: sqldb.Int}, sqldb.Column{Name: key + "_pad2", Type: sqldb.Int})
		}
		return append(out, rest...)
	}
	db.MustCreateTable(sqldb.Schema{Table: "o", PrimaryKey: "o_id", Indexes: []string{"o_a"}, Columns: cols("o_id",
		sqldb.Column{Name: "o_a", Type: sqldb.Int}, sqldb.Column{Name: "o_b", Type: sqldb.Int},
		sqldb.Column{Name: "o_c", Type: sqldb.Int}, sqldb.Column{Name: "o_f", Type: sqldb.Float},
		sqldb.Column{Name: "o_s", Type: sqldb.String})})
	db.MustCreateTable(sqldb.Schema{Table: "i", PrimaryKey: "i_id", Columns: cols("i_id",
		sqldb.Column{Name: "i_a", Type: sqldb.Int}, sqldb.Column{Name: "i_n", Type: sqldb.Int})})
	db.MustCreateTable(sqldb.Schema{Table: "a", PrimaryKey: "a_id", Columns: cols("a_id",
		sqldb.Column{Name: "a_name", Type: sqldb.String})})
	c := db.Connect()
	t.Cleanup(c.Close)
	return db, c
}

// intBs are the values o_b cycles through besides small ones.
var intBs = []int64{math.MinInt64, math.MaxInt64, -5, 0, 5, 7}

// intLoad fills the tables: 300 rows of o keyed -100..199, 50 of i keyed
// -10..39, 8 of a. Every 13th o_a, 11th o_b, 9th o_f and 17th i_a is
// NULL.
func intLoad(t *testing.T, c *sqldb.Conn) {
	t.Helper()
	for k := 1; k <= 8; k++ {
		codedExec(t, c, "INSERT INTO a (a_id, a_name) VALUES (?, ?)", k, fmt.Sprint("n", k%4))
	}
	for k := -10; k < 40; k++ {
		var ia any = 1 + (k+10)%8
		if (k+10)%17 == 0 {
			ia = nil
		}
		codedExec(t, c, "INSERT INTO i (i_id, i_a, i_n) VALUES (?, ?, ?)", k, ia, 3*k-20)
	}
	for n := 0; n < 300; n++ {
		var oa, ob, of any = n%50 - 10, int64(n % 20), float64(n%5) * 0.5
		if n%3 == 0 {
			ob = intBs[n/3%len(intBs)]
		}
		if n%13 == 0 {
			oa = nil
		}
		if n%11 == 0 {
			ob = nil
		}
		if n%9 == 0 {
			of = nil
		}
		codedExec(t, c, "INSERT INTO o (o_id, o_a, o_b, o_c, o_f, o_s) VALUES (?, ?, ?, ?, ?, ?)",
			n-100, oa, ob, n%7, of, fmt.Sprint("s", n%4))
	}
}

// intStatements lists each statement with the arguments it runs with:
// small, negative and extreme int64s, floats whole and not, NULL, and a
// string the comparison errors on.
var intStatements = []struct {
	sql  string
	args [][]any
}{
	{"SELECT o_id, o_b FROM o WHERE o_b = ?", [][]any{{5}, {-5}, {int64(math.MinInt64)}, {int64(math.MaxInt64)}, {5.0}, {5.5}, {nil}, {"x"}}},
	{"SELECT o_id FROM o WHERE o_b > ?", [][]any{{0}, {-1}, {int64(math.MinInt64)}, {int64(math.MaxInt64)}, {2.5}, {nil}, {"x"}}},
	{"SELECT o_id FROM o WHERE o_b > -6 AND o_a = 3", [][]any{nil}},
	{"SELECT o_id, o_b FROM o WHERE o_a = ? AND o_b > ?", [][]any{{3, 0}, {-10, int64(math.MinInt64)}, {nil, 0}, {4, "x"}, {4.0, 1}}},
	{"SELECT o_id, o_c FROM o WHERE o_c > ? AND o_b = ?", [][]any{{2, 7}, {2, 7.0}, {"x", 7}}},
	{"SELECT o_id, i_id, i_n FROM o JOIN i ON o_a = i_id WHERE i_n > ?", [][]any{{0}, {-100}, {2.5}, {"x"}}},
	{"SELECT o_id, i_id FROM o JOIN i ON o_b = i_id", [][]any{nil}},
	{"SELECT i_id, o_id, o_b FROM i JOIN o ON i_id = o_id WHERE o_b = ?", [][]any{{5}, {int64(math.MaxInt64)}, {nil}}},
	{"SELECT o_id, i_id FROM o JOIN i ON o_c = i_id WHERE i_n > ?", [][]any{{-15}}},
	{"SELECT o_id, o_f, i_id FROM o JOIN i ON o_f = i_id", [][]any{nil}},
	{"SELECT o_id, i_id, a_name FROM o JOIN i ON o_a = i_id JOIN a ON i_a = a_id WHERE o_b > ? AND a_name = ?",
		[][]any{{0, "n3"}, {int64(math.MinInt64), "n1"}, {nil, "n1"}}},
	{"SELECT o_a, SUM(o_c) AS n FROM o WHERE o_b > ? GROUP BY o_a ORDER BY n DESC, o_a LIMIT 5", [][]any{{-1}, {int64(math.MinInt64)}}},
	{"SELECT o_id, o_b FROM o WHERE o_b > ? ORDER BY o_b DESC, o_id LIMIT 7", [][]any{{int64(math.MinInt64)}, {6}}},
	{"SELECT o_id, o_b FROM o WHERE o_id = ?", [][]any{{5}, {5.0}, {5.5}, {-100}, {nil}, {"x"}}},
	{"SELECT o_id FROM o WHERE o_id > ? AND o_b = ?", [][]any{{150, 5}, {-200, int64(math.MaxInt64)}}},
}

// intRun runs a statement on db and renders its result, error and cost
// counts as text.
func intRun(db *sqldb.DB, sql string, args []any) string {
	cost, rows, err := sqldb.StatementCost(db, sql, args...)
	if err != nil {
		return fmt.Sprintf("error: %v", err)
	}
	c := db.Connect()
	defer c.Close()
	if rs, err := c.Query(sql, args...); err == nil {
		return fmt.Sprintf("%d rows %v, cost %+v", rows, rs.Rows, cost)
	}
	return fmt.Sprintf("%d rows, cost %+v", rows, cost)
}

// intCompare runs every statement on got and want and reports where they
// answer differently; it returns how many executions matched rows.
func intCompare(t *testing.T, what string, got, want *sqldb.DB) int {
	t.Helper()
	matched := 0
	for _, st := range intStatements {
		for _, args := range st.args {
			g, w := intRun(got, st.sql, args), intRun(want, st.sql, args)
			if g != w {
				t.Errorf("%s: %s %v:\n got %.400s\nwant %.400s", what, st.sql, args, g, w)
			}
			if len(g) > 6 && g[:6] != "error:" && g[:7] != "0 rows " {
				matched++
			}
		}
	}
	return matched
}

// intChanges are the writes after the first comparison, each matched on a
// slotted column or changing one: slotted cells set to extremes, to NULL
// and back, a key moved, keys deleted and given out again with other
// cells, one of them on the inner side of a join.
var intChanges = []struct {
	sql  string
	args []any
}{
	{"UPDATE o SET o_b = ? WHERE o_b = ?", []any{int64(math.MaxInt64), 5}},
	{"UPDATE o SET o_a = NULL WHERE o_b > ?", []any{100}},
	{"UPDATE o SET o_b = ? WHERE o_c = ?", []any{-7, 3}},
	{"UPDATE o SET o_a = ? WHERE o_id = ?", []any{12, -100}},
	{"UPDATE o SET o_b = ? WHERE o_b > ? AND o_a = ?", []any{int64(math.MinInt64), 0, 4}},
	{"UPDATE o SET o_b = NULL WHERE o_b = ?", []any{-5}},
	{"UPDATE o SET o_b = ? WHERE o_b = ?", []any{2.0, 2}},
	{"DELETE FROM o WHERE o_b = ?", []any{0}},
	{"DELETE FROM o WHERE o_id = ?", []any{0}},
	{"INSERT INTO o (o_id, o_a, o_b, o_c, o_f, o_s) VALUES (?, ?, ?, ?, ?, ?)", []any{0, 3, 5, 1, 1.0, "s-new"}},
	{"UPDATE o SET o_id = ? WHERE o_id = ?", []any{-200, 1}},
	{"DELETE FROM i WHERE i_id = ?", []any{3}},
	{"INSERT INTO i (i_id, i_a, i_n) VALUES (?, ?, ?)", []any{3, 2, 999}},
	{"UPDATE i SET i_a = ? WHERE i_n > ?", []any{nil, 90}},
	{"UPDATE i SET i_n = ? WHERE i_a = ?", []any{-1000, 2}},
}

// TestIntCellsMatchPlainEvaluation is the differential: the slotted
// database and its slot-less twin, under both engines, after loading, at
// a snapshot taken before the writes (whose own rows affected and cost
// counts must match too) and at the latest timestamp after them, and on a
// clone of the slotted database that replayed the writes from the
// replication log.
func TestIntCellsMatchPlainEvaluation(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		t.Run(fmt.Sprintf("mvcc=%v", mvcc), func(t *testing.T) {
			db, c := intDB(t, mvcc, false)
			twin, tc := intDB(t, mvcc, true)
			intLoad(t, c)
			intLoad(t, tc)
			for table, want := range map[string][]string{"o": {"o_a", "o_b"}, "i": {"i_a", "i_n"}, "a": nil} {
				got, err := sqldb.IntSlotted(db, table)
				if err != nil {
					t.Fatal(err)
				}
				padded, _ := sqldb.IntSlotted(twin, table)
				if !slices.Equal(got, want) || slices.ContainsFunc(padded, func(col string) bool { return slices.Contains(want, col) }) {
					t.Fatalf("%s: slotted %v, twin %v; want %v and none of them", table, got, padded, want)
				}
			}
			if n := intCompare(t, "loaded", db, twin); n < len(intStatements) {
				t.Fatalf("only %d executions returned rows: the statements test little", n)
			}

			log := db.EnableReplLog()
			clone, asOf := db.CloneSnapshot()
			snap, twinSnap := db.Snapshot(), twin.Snapshot()
			defer snap.Close()
			defer twinSnap.Close()
			for _, w := range intChanges {
				g, want := intRun(db, w.sql, w.args), intRun(twin, w.sql, w.args)
				if g != want {
					t.Errorf("%s %v:\n got %s\nwant %s", w.sql, w.args, g, want)
				}
			}
			for _, st := range intStatements {
				for _, args := range st.args {
					g, w := codedAnswer(snap, st.sql, args), codedAnswer(twinSnap, st.sql, args)
					if g != w {
						t.Errorf("snapshot before the writes: %s %v:\n got %.300s\nwant %.300s", st.sql, args, g, w)
					}
				}
			}
			intCompare(t, "latest", db, twin)

			cc := clone.Connect()
			defer cc.Close()
			codedReplay(t, log, asOf, cc)
			intCompare(t, "clone after replay", clone, twin)
			for name, d := range map[string]*sqldb.DB{"slotted": db, "twin": twin, "clone": clone} {
				if errs := sqldb.IntCellErrors(d); len(errs) > 0 {
					t.Errorf("%s: %d versions disagree with their cells: %v", name, len(errs), errs[:min(len(errs), 5)])
				}
			}
		})
	}
}

// TestIntCellsWhileWriterFlipsThem runs snapshot readers that filter r on
// its slotted x, join j to r through j's slotted jr and r to j through x,
// against a writer that flips x between values and NULL, points jr
// elsewhere, and gives r's keys out again on new slots. At every
// snapshot, each statement must return what the same snapshot's plain
// scans, filtered and joined here, hold. Run under -race.
func TestIntCellsWhileWriterFlipsThem(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		t.Run(fmt.Sprintf("mvcc=%v", mvcc), func(t *testing.T) {
			db := sqldb.OpenChecked(t, sqldb.Options{Cost: sqldb.ZeroCostModel()})
			db.SetMVCC(mvcc)
			db.MustCreateTable(sqldb.Schema{Table: "r", PrimaryKey: "id", Columns: []sqldb.Column{
				{Name: "id", Type: sqldb.Int}, {Name: "x", Type: sqldb.Int}}})
			db.MustCreateTable(sqldb.Schema{Table: "j", PrimaryKey: "jid", Columns: []sqldb.Column{
				{Name: "jid", Type: sqldb.Int}, {Name: "jr", Type: sqldb.Int}}})
			w := db.Connect()
			defer w.Close()
			for i := 0; i < 200; i++ {
				codedExec(t, w, "INSERT INTO r (id, x) VALUES (?, ?)", i, i%5)
			}
			for i := 0; i < 100; i++ {
				codedExec(t, w, "INSERT INTO j (jid, jr) VALUES (?, ?)", i, i*2)
			}

			var stop atomic.Bool
			var checks atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for {
						if !intSnapshotAgrees(t, db, rng) {
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
			for i := 0; i < 300; i++ {
				var x any = rng.Intn(5)
				if i%7 == 0 {
					x = nil
				}
				codedExec(t, w, "UPDATE r SET x = ? WHERE id = ?", x, rng.Intn(200))
				switch i % 3 {
				case 0:
					codedExec(t, w, "UPDATE j SET jr = ? WHERE jid = ?", rng.Intn(220), rng.Intn(100))
				case 1: // the key moves to a new slot, with another cell
					k := rng.Intn(200)
					codedExec(t, w, "DELETE FROM r WHERE id = ?", k)
					codedExec(t, w, "INSERT INTO r (id, x) VALUES (?, ?)", k, rng.Intn(5))
				}
				runtime.Gosched() // let the readers in between writes
			}
			stop.Store(true)
			wg.Wait()
			if checks.Load() == 0 {
				t.Fatal("no reader finished a check")
			}
			if errs := sqldb.IntCellErrors(db); len(errs) > 0 {
				t.Errorf("%v", errs[:min(len(errs), 5)])
			}
		})
	}
}

// intSnapshotAgrees takes a snapshot and compares a filter on x and two
// primary-key joins through slotted columns with the snapshot's plain
// scans of r and j, filtered and joined in Go.
func intSnapshotAgrees(t *testing.T, db *sqldb.DB, rng *rand.Rand) bool {
	snap := db.Snapshot()
	defer snap.Close()
	rs, err := snap.Query("SELECT id, x FROM r")
	if err != nil {
		t.Error(err)
		return false
	}
	js, err := snap.Query("SELECT jid, jr FROM j")
	if err != nil {
		t.Error(err)
		return false
	}
	rByID, jByID := map[sqldb.Value][]sqldb.Value{}, map[sqldb.Value][]sqldb.Value{}
	for _, row := range rs.Rows {
		rByID[row[0]] = row
	}
	for _, row := range js.Rows {
		jByID[row[0]] = row
	}
	x := int64(rng.Intn(5))
	var filtered, jr, rj [][]sqldb.Value
	for _, row := range rs.Rows {
		if v, ok := row[1].(int64); ok && v > x {
			filtered = append(filtered, row)
		}
		if j, ok := jByID[row[1]]; ok && row[1] != nil {
			rj = append(rj, []sqldb.Value{row[0], j[0]})
		}
	}
	for _, row := range js.Rows {
		if r, ok := rByID[row[1]]; ok {
			if v, ok := r[1].(int64); ok && v > x {
				jr = append(jr, []sqldb.Value{row[0], r[0], r[1]})
			}
		}
	}
	for _, st := range []struct {
		sql  string
		args []any
		want [][]sqldb.Value
	}{
		{"SELECT id, x FROM r WHERE x > ?", []any{x}, filtered},
		{"SELECT jid, id, x FROM j JOIN r ON jr = id WHERE x > ?", []any{x}, jr},
		{"SELECT id, jid FROM r JOIN j ON x = jid", nil, rj},
	} {
		got, err := snap.Query(st.sql, st.args...)
		if err != nil {
			t.Error(err)
			return false
		}
		if !slices.EqualFunc(got.Rows, st.want, func(a, b []sqldb.Value) bool { return slices.Equal(a, b) }) {
			t.Errorf("snapshot %d: %q %v returned %d rows, the plain scans %d", snap.TS(), st.sql, st.args, got.Len(), len(st.want))
			return false
		}
	}
	return true
}
