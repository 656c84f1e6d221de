package sqldb_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"stagedweb/internal/sqldb"
)

// A string predicate on a column whose row versions carry dictionary
// codes is evaluated once per distinct value per execution. These tests
// hold it to the plain evaluation: a twin database whose dictionaries are
// used up before its rows arrive carries no code at all, and must answer
// every statement with the same rows, in the same order, and the same
// error.

// codedQuerier is what the differential runs statements on: a connection
// or a snapshot.
type codedQuerier interface {
	Query(sql string, args ...any) (*sqldb.ResultSet, error)
}

// codedDB opens the three-table schema the differential runs on: p's p_s
// (few values, NULLs) and p_t (crosses the dictionary cut-off half way
// through the table), a's a_lname (on the inner side of a primary-key
// join) and q's q_s (whose rows that fail it have the q_n an earlier
// conjunct errors on) are coded. p_a has a hash index and p_n an ordered
// one, so that coded predicates are re-checked on every access path. A
// twin's dictionaries are used up first: 255 junk strings per String
// column, inserted and deleted, so that every row it is loaded with
// carries code 0.
func codedDB(t *testing.T, mvcc, twin bool) (*sqldb.DB, *sqldb.Conn) {
	t.Helper()
	db := sqldb.OpenChecked(t, sqldb.Options{Cost: sqldb.ZeroCostModel()})
	db.SetMVCC(mvcc)
	db.MustCreateTable(sqldb.Schema{Table: "a", PrimaryKey: "a_id", Columns: []sqldb.Column{
		{Name: "a_id", Type: sqldb.Int}, {Name: "a_lname", Type: sqldb.String}}})
	db.MustCreateTable(sqldb.Schema{Table: "p", PrimaryKey: "p_id", Indexes: []string{"p_a"},
		Columns: []sqldb.Column{
			{Name: "p_id", Type: sqldb.Int}, {Name: "p_s", Type: sqldb.String}, {Name: "p_a", Type: sqldb.Int},
			{Name: "p_t", Type: sqldb.String}, {Name: "p_n", Type: sqldb.Int}}})
	if err := db.CreateIndex("p", "p_n", true); err != nil {
		t.Fatal(err)
	}
	db.MustCreateTable(sqldb.Schema{Table: "q", PrimaryKey: "q_id", Columns: []sqldb.Column{
		{Name: "q_id", Type: sqldb.Int}, {Name: "q_s", Type: sqldb.String}, {Name: "q_n", Type: sqldb.Int}}})
	c := db.Connect()
	t.Cleanup(c.Close)
	if twin {
		for i := 1; i <= 255; i++ {
			junk := fmt.Sprint("\x00junk", i)
			codedExec(t, c, "INSERT INTO a (a_id, a_lname) VALUES (?, ?)", -i, junk)
			codedExec(t, c, "INSERT INTO p (p_id, p_s, p_a, p_t, p_n) VALUES (?, ?, 0, ?, 0)", -i, junk, junk)
			codedExec(t, c, "INSERT INTO q (q_id, q_s) VALUES (?, ?)", -i, junk)
		}
		for i := 1; i <= 255; i++ {
			codedExec(t, c, "DELETE FROM a WHERE a_id = ?", -i)
			codedExec(t, c, "DELETE FROM p WHERE p_id = ?", -i)
			codedExec(t, c, "DELETE FROM q WHERE q_id = ?", -i)
		}
	}
	return db, c
}

func codedExec(t *testing.T, c *sqldb.Conn, sql string, args ...any) {
	t.Helper()
	if _, err := c.Exec(sql, args...); err != nil {
		t.Fatalf("%s %v: %v", sql, args, err)
	}
}

var codedLnames = []string{"Anders", "Brandt", "Chan", "Dumas", "Evans", "Fanon", "Grant", "Hanks", "Ito", "Jansen", "Klee", "Lang"}

// codedLoad fills the tables: 40 authors over 12 last names and some
// NULLs, 600 rows of p over 9 subjects and some NULLs, and a p_t that
// holds 400 distinct strings, so that rows 400 on repeat in uncoded rows
// the values rows 0–199 hold coded; and 200 rows of q, the first half
// "qa" with a NULL q_n, the rest "qb" with one.
func codedLoad(t *testing.T, c *sqldb.Conn) {
	t.Helper()
	codedLoadHead(t, c)
	codedLoadRows(t, c, 0, 600)
}

// codedLoadHead loads a and q.
func codedLoadHead(t *testing.T, c *sqldb.Conn) {
	t.Helper()
	for i := 1; i <= 40; i++ {
		var lname any = codedLnames[i%len(codedLnames)]
		if i%13 == 0 {
			lname = nil
		}
		codedExec(t, c, "INSERT INTO a (a_id, a_lname) VALUES (?, ?)", i, lname)
	}
	for i := 0; i < 200; i++ {
		s, n := any("qa"), any(nil)
		if i >= 100 {
			s, n = "qb", i
		}
		codedExec(t, c, "INSERT INTO q (q_id, q_s, q_n) VALUES (?, ?, ?)", i, s, n)
	}
}

// codedLoadRows loads rows [lo, hi) of p.
func codedLoadRows(t *testing.T, c *sqldb.Conn, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		var s any = fmt.Sprint("s", i%9)
		if i%11 == 0 {
			s = nil
		}
		codedExec(t, c, "INSERT INTO p (p_id, p_s, p_a, p_t, p_n) VALUES (?, ?, ?, ?, ?)",
			i, s, 1+i%40, fmt.Sprintf("t%03d", i*7%400), i)
	}
}

// codedStatements lists each statement with the arguments it runs with,
// one after the other on the same connection: a value in the dictionary,
// one that is not, a mistyped one, NULL.
var codedStatements = []struct {
	sql  string
	args [][]any
}{
	{"SELECT p_id, p_s FROM p WHERE p_s = ?", [][]any{{"s3"}, {"s4"}, {"s35"}, {7}, {nil}}},
	{"SELECT p_id, p_s FROM p WHERE p_s > ?", [][]any{{"s3"}, {"s35"}, {"s"}, {7}, {nil}}},
	{"SELECT p_id, p_s FROM p WHERE p_s LIKE ?", [][]any{{"%3%"}, {"S%"}, {"%x%"}, {7}, {nil}}},
	{"SELECT p_id FROM p WHERE p_s = 's5'", [][]any{nil}},
	{"SELECT p_id FROM p WHERE p_s > 's6'", [][]any{nil}},
	{"SELECT p_id FROM p WHERE p_s > 3", [][]any{nil}},
	{"SELECT p_id, p_t FROM p WHERE p_t = ?", [][]any{{"t007"}, {"t399"}, {"t400"}, {7}}},
	{"SELECT p_id, p_t FROM p WHERE p_t > ?", [][]any{{"t100"}, {"t350"}, {"t3505"}, {"t3999"}, {7}}},
	{"SELECT p_id, p_t FROM p WHERE p_t LIKE ?", [][]any{{"%0_"}, {"T1%"}, {"%q%"}}},
	{"SELECT p_id, p_s, p_t FROM p WHERE p_s > ? AND p_t > ? ORDER BY p_t DESC, p_id LIMIT 7", [][]any{{"s1", "t200"}, {"s2", "t300"}, {"s2", 7}}},
	{"SELECT p_s, p_t, SUM(p_n) AS n FROM p WHERE p_t > ? GROUP BY p_s", [][]any{{"t150"}, {"t300"}}},
	{"SELECT p_id FROM p WHERE p_s = ? AND p_t LIKE ?", [][]any{{"s1", "%5%"}, {"s2", "%6%"}}},
	{"SELECT p_id, p_s FROM p WHERE p_a = ? AND p_s LIKE ?", [][]any{{5, "%4%"}, {6, "%4%"}, {7, "%s%"}}},
	{"SELECT p_id, p_t FROM p WHERE p_n > ? AND p_t > ?", [][]any{{450, "t200"}, {100, "t300"}}},
	{"SELECT p_id, p_s, p_n FROM p WHERE p_s = ? ORDER BY p_n DESC LIMIT 4", [][]any{{"s6"}, {"s7"}}},
	{"SELECT p_id, a_lname FROM p JOIN a ON p_a = a_id WHERE a_lname LIKE ?", [][]any{{"%an%"}, {"Du%"}, {"%AN%"}, {"%zz%"}, {7}}},
	{"SELECT p_id, a_lname, p_s FROM p JOIN a ON p_a = a_id WHERE a_lname = ? AND p_s = ?", [][]any{{"Grant", "s2"}, {"Chan", "s3"}, {"Nobody", "s3"}, {"Chan", 7}}},
	{"SELECT a_lname, SUM(p_n) AS n FROM p JOIN a ON p_a = a_id WHERE a_lname > ? GROUP BY a_lname ORDER BY n DESC, a_lname LIMIT 5", [][]any{{"Hanks"}, {"B"}}},
	// q_n > 'x' errors on every row with a q_n, which are the rows q_s =
	// 'qa' rejects: sieving the rows on the second conjunct would hide
	// the first's error.
	{"SELECT q_id FROM q WHERE q_n > ? AND q_s = ?", [][]any{{"x", "qa"}, {150, "qb"}}},
	{"SELECT q_id FROM q WHERE q_s = ? AND q_n > ?", [][]any{{"qa", "x"}, {"qb", 150}}},
	{"SELECT p_id, q_id FROM p JOIN q ON p_n = q_id WHERE q_n > ? AND q_s = ?", [][]any{{"x", "qa"}, {150, "qb"}}},
	{"SELECT p_id, q_id FROM p JOIN q ON p_n = q_id WHERE q_s = ? AND q_n > ?", [][]any{{"qa", "x"}, {"qb", 150}}},
}

// codedAnswer is a statement's result, or its error, as text.
func codedAnswer(q codedQuerier, sql string, args []any) string {
	rs, err := q.Query(sql, args...)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(rs.Rows)
}

// codedCompare runs every statement on got and want and reports where
// they answer differently; it returns how many statements matched rows.
func codedCompare(t *testing.T, what string, got, want codedQuerier) int {
	t.Helper()
	matched := 0
	for _, st := range codedStatements {
		for _, args := range st.args {
			g, w := codedAnswer(got, st.sql, args), codedAnswer(want, st.sql, args)
			if g != w {
				t.Errorf("%s: %s %v:\n got %.300s\nwant %.300s", what, st.sql, args, g, w)
			}
			if g != "[]" && !strings.HasPrefix(g, "error") {
				matched++
			}
		}
	}
	return matched
}

// codedReplay applies the log's entries after asOf on c.
func codedReplay(t *testing.T, log *sqldb.ReplLog, asOf int64, c *sqldb.Conn) {
	t.Helper()
	entries, _ := log.Since(asOf)
	for _, e := range entries {
		args := make([]any, len(e.Args))
		for i, a := range e.Args {
			args[i] = a
		}
		codedExec(t, c, e.SQL, args...)
	}
}

// codedChanges are the writes after the first comparison: the coded
// column updated to a new value and to one already coded, the crossing
// column updated, a join-side update, deletes and inserts, and primary
// keys given out again to rows with other codes, one of them on the
// inner side of a join.
var codedChanges = []struct {
	sql  string
	args []any
}{
	{"UPDATE p SET p_s = ? WHERE p_a = ?", []any{"s-new", 5}},
	{"UPDATE p SET p_s = ? WHERE p_n > 499", []any{"s2"}},
	{"UPDATE p SET p_s = NULL WHERE p_a = 9", nil},
	{"UPDATE p SET p_t = ? WHERE p_a = ?", []any{"t001", 20}},
	{"UPDATE a SET a_lname = ? WHERE a_lname = ?", []any{"Newman", "Chan"}},
	{"DELETE FROM p WHERE p_a = ?", []any{33}},
	{"INSERT INTO p (p_id, p_s, p_a, p_t, p_n) VALUES (?, ?, ?, ?, ?)", []any{1000, "s3", 3, "t007", 1000}},
	{"INSERT INTO p (p_id, p_s, p_a, p_t, p_n) VALUES (?, ?, ?, ?, ?)", []any{1001, "s-later", 4, "t-later", 1001}},
	{"DELETE FROM a WHERE a_id = ?", []any{15}},
	{"INSERT INTO a (a_id, a_lname) VALUES (?, ?)", []any{15, "Zed"}},
	{"DELETE FROM p WHERE p_id = ?", []any{7}},
	{"INSERT INTO p (p_id, p_s, p_a, p_t, p_n) VALUES (?, ?, ?, ?, ?)", []any{7, "s0", 15, "t-again", 7}},
	{"UPDATE q SET q_s = ? WHERE q_id = ?", []any{"qb", 0}},
	{"UPDATE q SET q_s = ? WHERE q_id = ?", []any{"qb", 19}},
	{"DELETE FROM q WHERE q_id = ?", []any{150}},
	{"INSERT INTO q (q_id, q_s) VALUES (?, ?)", []any{150, "qa"}},
}

// TestCodedPredicatesMatchPlainEvaluation is the differential: the coded
// database and its uncoded twin, under both engines, a third of the way
// through loading (which builds the coded columns' postings before p_t
// drops its dictionary), after loading, at a snapshot taken before the
// writes and at the latest timestamp after them, and on a clone of the
// coded database that replayed the writes from the replication log.
func TestCodedPredicatesMatchPlainEvaluation(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		t.Run(fmt.Sprintf("mvcc=%v", mvcc), func(t *testing.T) {
			db, c := codedDB(t, mvcc, false)
			twin, tc := codedDB(t, mvcc, true)
			for _, c := range []*sqldb.Conn{c, tc} {
				codedLoadHead(t, c)
				codedLoadRows(t, c, 0, 200)
			}
			codedCompare(t, "partly loaded", c, tc)
			codedLoadRows(t, c, 200, 600)
			codedLoadRows(t, tc, 200, 600)
			for _, col := range [][2]string{{"p", "p_s"}, {"p", "p_t"}, {"a", "a_lname"}} {
				coded, err := sqldb.CodedRows(db, col[0], col[1])
				if err != nil {
					t.Fatal(err)
				}
				uncoded, _ := sqldb.CodedRows(twin, col[0], col[1])
				if coded == 0 || uncoded != 0 {
					t.Fatalf("%s.%s: %d coded rows, twin %d; want some and none", col[0], col[1], coded, uncoded)
				}
			}
			if coded, _ := sqldb.CodedRows(db, "p", "p_t"); coded != 255 {
				t.Fatalf("p.p_t: %d coded rows, want the 255 before the cut-off", coded)
			}
			if n := codedCompare(t, "loaded", c, tc); n < len(codedStatements) {
				t.Fatalf("only %d executions returned rows: the statements test little", n)
			}

			log := db.EnableReplLog()
			clone, asOf := db.CloneSnapshot()
			snap, twinSnap := db.Snapshot(), twin.Snapshot()
			defer snap.Close()
			defer twinSnap.Close()
			for _, w := range codedChanges {
				codedExec(t, c, w.sql, w.args...)
				codedExec(t, tc, w.sql, w.args...)
			}
			codedCompare(t, "snapshot before the writes", snap, twinSnap)
			codedCompare(t, "latest", c, tc)

			cc := clone.Connect()
			defer cc.Close()
			codedReplay(t, log, asOf, cc)
			codedCompare(t, "clone after replay", cc, tc)
			for name, d := range map[string]*sqldb.DB{"coded": db, "twin": twin, "clone": clone} {
				if errs := sqldb.CodeErrors(d); len(errs) > 0 {
					t.Errorf("%s: %d versions disagree with their dictionaries: %v", name, len(errs), errs[:min(len(errs), 5)])
				}
				if errs := sqldb.PostingErrors(d); len(errs) > 0 {
					t.Errorf("%s: %d versions missing from their postings: %v", name, len(errs), errs[:min(len(errs), 5)])
				}
			}
			if built := sqldb.PostingsBuilt(db); !slices.Equal(built, []string{"a.a_lname", "p.p_s", "p.p_t", "q.q_s"}) {
				t.Errorf("postings built for %v, want a.a_lname, p.p_s, p.p_t and q.q_s", built)
			}
		})
	}
}

// TestVersionCodesMatchDictionaries: every version, old ones included,
// carries the code its column's dictionary gives its cell — made by
// insert, by update (the coded column changed or not), by CloneSnapshot,
// and by a replica replaying the log — on a column that keeps its
// dictionary and on one that crosses the cut-off.
func TestVersionCodesMatchDictionaries(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		t.Run(fmt.Sprintf("mvcc=%v", mvcc), func(t *testing.T) {
			db, c := codedDB(t, mvcc, false)
			log := db.EnableReplLog()
			snap := db.Snapshot() // keeps old versions in the chains
			defer snap.Close()
			codedLoad(t, c)
			clone, asOf := db.CloneSnapshot()
			if errs := sqldb.CodeErrors(clone); len(errs) > 0 {
				t.Fatalf("clone: %v", errs)
			}
			for _, w := range codedChanges {
				codedExec(t, c, w.sql, w.args...)
			}
			codedExec(t, c, "UPDATE p SET p_n = ? WHERE p_n = 150", 2000) // codes carried over unchanged
			cc := clone.Connect()
			defer cc.Close()
			codedReplay(t, log, asOf, cc)
			for name, d := range map[string]*sqldb.DB{"primary": db, "replica": clone} {
				if errs := sqldb.CodeErrors(d); len(errs) > 0 {
					t.Errorf("%s: %v", name, errs)
				}
			}
		})
	}
}

// TestCodedPredicatesAtSnapshotsWhileDictionaryFills runs snapshot
// readers against a writer that inserts new distinct strings up to and
// past a column's cut-off, repeats old ones and updates rows. At every
// snapshot, each coded predicate must return what the same snapshot's
// scan, filtered here, holds. Run under -race.
func TestCodedPredicatesAtSnapshotsWhileDictionaryFills(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		t.Run(fmt.Sprintf("mvcc=%v", mvcc), func(t *testing.T) {
			db := sqldb.OpenChecked(t, sqldb.Options{Cost: sqldb.ZeroCostModel()})
			db.SetMVCC(mvcc)
			db.MustCreateTable(sqldb.Schema{Table: "r", PrimaryKey: "id", Columns: []sqldb.Column{
				{Name: "id", Type: sqldb.Int}, {Name: "s", Type: sqldb.String}}})
			w := db.Connect()
			defer w.Close()
			var stop atomic.Bool
			var checks atomic.Int64
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(r)))
					// At least one check each, however soon the writer is done.
					for {
						if !codedSnapshotAgrees(t, db, rng) {
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
			for i := 0; i < 400; i++ {
				codedExec(t, w, "INSERT INTO r (id, s) VALUES (?, ?)", i, fmt.Sprint("v", i))
				codedExec(t, w, "INSERT INTO r (id, s) VALUES (?, ?)", 1000+i, fmt.Sprint("v", rng.Intn(i+1)))
				if i%4 == 0 {
					codedExec(t, w, "UPDATE r SET s = ? WHERE id = ?", fmt.Sprint("v", rng.Intn(i+1)), rng.Intn(i+1))
				}
			}
			stop.Store(true)
			wg.Wait()
			if checks.Load() == 0 {
				t.Fatal("no reader finished a check")
			}
			if errs := sqldb.CodeErrors(db); len(errs) > 0 {
				t.Errorf("%v", errs)
			}
		})
	}
}

// codedSnapshotAgrees takes a snapshot and compares three coded
// predicates on r.s with its whole table filtered in Go.
func codedSnapshotAgrees(t *testing.T, db *sqldb.DB, rng *rand.Rand) bool {
	snap := db.Snapshot()
	defer snap.Close()
	all, err := snap.Query("SELECT id, s FROM r")
	if err != nil {
		t.Error(err)
		return false
	}
	v := fmt.Sprint("v", rng.Intn(420))
	digit := fmt.Sprint(rng.Intn(10))
	for _, p := range []struct {
		sql  string
		arg  string
		keep func(string) bool
	}{
		{"SELECT id, s FROM r WHERE s = ?", v, func(s string) bool { return s == v }},
		{"SELECT id, s FROM r WHERE s > ?", v, func(s string) bool { return s > v }},
		{"SELECT id, s FROM r WHERE s LIKE ?", "%" + digit + "%", func(s string) bool { return strings.Contains(s, digit) }},
	} {
		var want [][]sqldb.Value
		for _, row := range all.Rows {
			if p.keep(row[1].(string)) {
				want = append(want, row)
			}
		}
		rs, err := snap.Query(p.sql, p.arg)
		if err != nil {
			t.Error(err)
			return false
		}
		if !slices.EqualFunc(rs.Rows, want, func(a, b []sqldb.Value) bool { return slices.Equal(a, b) }) {
			t.Errorf("snapshot %d: %q %q returned %d rows, the filtered scan %d", snap.TS(), p.sql, p.arg, rs.Len(), len(want))
			return false
		}
	}
	return true
}

// codedColors are the values the flipping writer moves r.s between.
var codedColors = []string{"red", "green", "blue", "grey"}

// TestCodedPostingsWhileWriterFlipsCodes runs snapshot readers that scan
// r and probe it from j through the postings of r.s, and connection
// readers at the latest timestamp, against a writer that flips coded
// cells between values and to NULL, gives keys out again on new slots,
// and adds rows with new strings until the table outgrows its postings.
// At every snapshot, each sieved statement must return what the same
// snapshot's unsieved statement, filtered here, holds. Run under -race.
func TestCodedPostingsWhileWriterFlipsCodes(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		t.Run(fmt.Sprintf("mvcc=%v", mvcc), func(t *testing.T) {
			db := sqldb.OpenChecked(t, sqldb.Options{Cost: sqldb.ZeroCostModel()})
			db.SetMVCC(mvcc)
			db.MustCreateTable(sqldb.Schema{Table: "r", PrimaryKey: "id", Columns: []sqldb.Column{
				{Name: "id", Type: sqldb.Int}, {Name: "s", Type: sqldb.String}}})
			db.MustCreateTable(sqldb.Schema{Table: "j", PrimaryKey: "jid", Columns: []sqldb.Column{
				{Name: "jid", Type: sqldb.Int}, {Name: "jr", Type: sqldb.Int}}})
			w := db.Connect()
			defer w.Close()
			for i := 0; i < 200; i++ {
				codedExec(t, w, "INSERT INTO r (id, s) VALUES (?, ?)", i, codedColors[i%len(codedColors)])
			}
			for i := 0; i < 300; i++ {
				codedExec(t, w, "INSERT INTO j (jid, jr) VALUES (?, ?)", i, i%260)
			}

			var stop atomic.Bool
			var checks atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					c := db.Connect()
					defer c.Close()
					for {
						if !codedPostingsAgree(t, db, c, rng) {
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
			next := 1000
			for i := 0; i < 300; i++ {
				var color any = codedColors[rng.Intn(len(codedColors))]
				if i%9 == 0 {
					color = nil
				}
				codedExec(t, w, "UPDATE r SET s = ? WHERE id = ?", color, rng.Intn(200))
				switch i % 4 {
				case 1: // the key moves to a new slot, with another code
					k := rng.Intn(200)
					codedExec(t, w, "DELETE FROM r WHERE id = ?", k)
					codedExec(t, w, "INSERT INTO r (id, s) VALUES (?, ?)", k, codedColors[rng.Intn(len(codedColors))])
				case 3: // a new string, and a key j may already point at
					codedExec(t, w, "INSERT INTO r (id, s) VALUES (?, ?)", 200+i/4, fmt.Sprint("hue", i))
				case 2:
					next++
					codedExec(t, w, "INSERT INTO r (id, s) VALUES (?, ?)", next, "red")
				}
				runtime.Gosched() // let the readers in between writes
			}
			stop.Store(true)
			wg.Wait()
			t.Logf("%d checks", checks.Load())
			if checks.Load() == 0 {
				t.Fatal("no reader finished a check")
			}
			if built := sqldb.PostingsBuilt(db); !slices.Equal(built, []string{"r.s"}) {
				t.Errorf("postings built for %v, want r.s", built)
			}
			if errs := sqldb.PostingErrors(db); len(errs) > 0 {
				t.Errorf("%v", errs[:min(len(errs), 5)])
			}
			if errs := sqldb.CodeErrors(db); len(errs) > 0 {
				t.Errorf("%v", errs[:min(len(errs), 5)])
			}
		})
	}
}

// codedPostingsAgree takes a snapshot and compares a sieved scan and a
// sieved join, on one color or a LIKE, with the snapshot's whole scan and
// whole join filtered in Go; then runs the sieved scan on c at the latest
// timestamp and checks each row it returns.
func codedPostingsAgree(t *testing.T, db *sqldb.DB, c *sqldb.Conn, rng *rand.Rand) bool {
	snap := db.Snapshot()
	defer snap.Close()
	color := codedColors[rng.Intn(len(codedColors))]
	keep := func(v sqldb.Value) bool { return v == color }
	scan, join := "SELECT id, s FROM r WHERE s = ?", "SELECT jid, id, s FROM j JOIN r ON jr = id WHERE s = ?"
	arg := color
	if rng.Intn(3) == 0 {
		scan, join = "SELECT id, s FROM r WHERE s LIKE ?", "SELECT jid, id, s FROM j JOIN r ON jr = id WHERE s LIKE ?"
		arg = "%re%"
		keep = func(v sqldb.Value) bool { s, ok := v.(string); return ok && strings.Contains(s, "re") }
	}
	for _, st := range []struct{ all, sieved string }{
		{"SELECT id, s FROM r", scan},
		{"SELECT jid, id, s FROM j JOIN r ON jr = id", join},
	} {
		all, err := snap.Query(st.all)
		if err != nil {
			t.Error(err)
			return false
		}
		var want [][]sqldb.Value
		for _, row := range all.Rows {
			if keep(row[len(row)-1]) {
				want = append(want, row)
			}
		}
		rs, err := snap.Query(st.sieved, arg)
		if err != nil {
			t.Error(err)
			return false
		}
		if !slices.EqualFunc(rs.Rows, want, func(a, b []sqldb.Value) bool { return slices.Equal(a, b) }) {
			t.Errorf("snapshot %d: %q %q returned %d rows, the filtered statement %d", snap.TS(), st.sieved, arg, rs.Len(), len(want))
			return false
		}
	}
	rs, err := c.Query(scan, arg)
	if err != nil {
		t.Error(err)
		return false
	}
	for _, row := range rs.Rows {
		if !keep(row[1]) {
			t.Errorf("%q %q returned %v", scan, arg, row)
			return false
		}
	}
	return true
}
