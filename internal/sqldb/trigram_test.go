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

// A LIKE on a String column whose code postings narrow nothing (its
// dictionary was gone before they were built, or it has no code slot)
// visits, as the first conjunct of a full scan or a primary-key join step,
// only the slots in every set of its pattern's letter trigrams. These
// tests hold it to the plain evaluation: a twin database whose trigram
// postings narrow nothing (sqldb.KeepPlainLike), loaded and written the
// same way, must answer every statement with the same rows, in the same
// order, the same error and the same cost counts.

// gramWords are the words titles and bios are made of.
var gramWords = []string{"The", "Secret", "History", "City", "Lost", "River", "Garden", "Night", "Empire", "Winter", "Shadow", "Ocean"}

// gramDB opens the three-table schema the differential runs on: b's
// b_title (600 distinct titles, some NULL, one empty, some with bytes
// past ASCII or a '%' or '_'), a's a_bio (300 distinct, on the inner side
// of a primary-key join from b) and w's w_text (a dozen values, but after
// eight other String columns, so it has no code slot). b_a is
// hash-indexed, so that a LIKE is re-checked on an index path too.
func gramDB(t *testing.T, mvcc, twin bool) (*sqldb.DB, *sqldb.Conn) {
	t.Helper()
	db := sqldb.OpenChecked(t, sqldb.Options{Cost: sqldb.ZeroCostModel()})
	db.SetMVCC(mvcc)
	db.MustCreateTable(sqldb.Schema{Table: "a", PrimaryKey: "a_id", Columns: []sqldb.Column{
		{Name: "a_id", Type: sqldb.Int}, {Name: "a_name", Type: sqldb.String}, {Name: "a_bio", Type: sqldb.String}}})
	db.MustCreateTable(sqldb.Schema{Table: "b", PrimaryKey: "b_id", Indexes: []string{"b_a"}, Columns: []sqldb.Column{
		{Name: "b_id", Type: sqldb.Int}, {Name: "b_title", Type: sqldb.String}, {Name: "b_a", Type: sqldb.Int},
		{Name: "b_n", Type: sqldb.Int}}})
	wcols := []sqldb.Column{{Name: "w_id", Type: sqldb.Int}}
	for i := 1; i <= 8; i++ {
		wcols = append(wcols, sqldb.Column{Name: fmt.Sprint("w_pad", i), Type: sqldb.String})
	}
	db.MustCreateTable(sqldb.Schema{Table: "w", PrimaryKey: "w_id",
		Columns: append(wcols, sqldb.Column{Name: "w_text", Type: sqldb.String})})
	if twin {
		sqldb.KeepPlainLike(db)
	}
	c := db.Connect()
	t.Cleanup(c.Close)
	return db, c
}

// gramTitle is b's title for row i.
func gramTitle(i int) any {
	w := func(k int) string { return gramWords[k%len(gramWords)] }
	switch {
	case i%23 == 0:
		return nil
	case i == 1:
		return ""
	case i%31 == 0:
		return fmt.Sprintf("Caf\xc9 \xc9t\xc9 %s #%d", w(i), i)
	case i%37 == 0:
		return fmt.Sprintf("Na\u00efve 100%% %s_%s #%d", w(i), w(i/3), i)
	case i%5 == 0:
		return fmt.Sprintf("%s %s book #%d", w(i), w(i/7), i)
	}
	return fmt.Sprintf("%s %s of %s #%d", w(i), w(i/7), strings.ToLower(w(i/3)), i)
}

// gramLoad fills the tables: 300 authors, 600 rows of b, 100 of w.
func gramLoad(t *testing.T, c *sqldb.Conn) {
	t.Helper()
	for i := 1; i <= 300; i++ {
		bio := fmt.Sprintf("%s of the %s #%d", gramWords[i%len(gramWords)], strings.ToUpper(gramWords[i/5%len(gramWords)]), i)
		codedExec(t, c, "INSERT INTO a (a_id, a_name, a_bio) VALUES (?, ?, ?)", i, fmt.Sprint("n", i%4), bio)
	}
	for i := 0; i < 600; i++ {
		codedExec(t, c, "INSERT INTO b (b_id, b_title, b_a, b_n) VALUES (?, ?, ?, ?)", i, gramTitle(i), 1+i%300, i)
	}
	for i := 0; i < 100; i++ {
		codedExec(t, c, "INSERT INTO w (w_id, w_text) VALUES (?, ?)", i, fmt.Sprint("alpha ", gramWords[i%len(gramWords)]))
	}
}

// gramStatements lists each statement with the arguments it runs with:
// words short and long, '_' and '%' inside a pattern, prefix and suffix
// patterns, mixed case, bytes past ASCII, a word no row holds, the empty
// pattern, patterns with no letter trigram, one most rows match, and
// arguments that are not a string or are missing.
var gramStatements = []struct {
	sql  string
	args [][]any
}{
	{"SELECT b_id, b_title FROM b WHERE b_title LIKE ?", [][]any{
		{"%the%"}, {"%cit%"}, {"%of%"}, {"%se_ret%"}, {"%sec%et%"}, {"sec%"}, {"The%"}, {"%city"}, {"%book #_5"},
		{"%CiTy%"}, {"%SeCrEt%"}, {"%caf\xc9%"}, {"%\xc9t\xc9%"}, {"%na\u00efve%"}, {"%100%riv%"}, {"%r_ver_%"},
		{"%zzyzx%"}, {""}, {"%"}, {"%#12%"}, {"%o%"}, {7}, {nil}, {}}},
	{"SELECT b_id FROM b WHERE b_title LIKE 'The%'", [][]any{nil}},
	{"SELECT b_id, b_title FROM b WHERE b_title LIKE ? ORDER BY b_title DESC, b_id LIMIT 7", [][]any{{"%night%"}, {"%zzyzx%"}, {"%#4%"}}},
	{"SELECT b_a, SUM(b_n) AS n FROM b WHERE b_title LIKE ? GROUP BY b_a ORDER BY n DESC, b_a LIMIT 5", [][]any{{"%empire%"}, {"%winter%"}}},
	{"SELECT b_id, b_title, a_name FROM b JOIN a ON b_a = a_id WHERE b_title LIKE ? ORDER BY b_title LIMIT 50", [][]any{{"%the%"}, {"%ocean%"}, {"%zzyzx%"}}},
	{"SELECT b_id, a_id, a_bio FROM b JOIN a ON b_a = a_id WHERE a_bio LIKE ?", [][]any{{"%river%"}, {"%GARden%"}, {"%ga_den%"}, {"%zzyzx%"}, {"%of%"}, {7}}},
	{"SELECT b_id, a_id FROM b JOIN a ON b_a = a_id WHERE a_bio LIKE ? AND b_n > ?", [][]any{{"%shadow%", 300}}},
	// b_n > 'x' errors on every row it is evaluated on: only the rows the
	// LIKE passes, sieved or not.
	{"SELECT b_id FROM b WHERE b_title LIKE ? AND b_n > ?", [][]any{{"%the%", "x"}, {"%zzyzx%", "x"}, {"%lost%", 100}}},
	{"SELECT b_id FROM b WHERE b_n > ? AND b_title LIKE ?", [][]any{{"x", "%zzyzx%"}, {100, "%lost%"}}},
	{"SELECT b_id, b_title FROM b WHERE b_a = ? AND b_title LIKE ?", [][]any{{5, "%the%"}, {17, "%zzyzx%"}}},
	{"SELECT w_id, w_text FROM w WHERE w_text LIKE ?", [][]any{{"%alpha city%"}, {"%pha%"}, {"%zzyzx%"}}},
	{"SELECT b_id FROM b WHERE b_n LIKE ?", [][]any{{"%one%"}}},
}

// gramCompare runs every statement on got and want, at the latest
// timestamp, and reports where their rows, errors or cost counts differ;
// it returns how many executions matched rows.
func gramCompare(t *testing.T, what string, got, want *sqldb.DB) int {
	t.Helper()
	matched := 0
	for _, st := range gramStatements {
		for _, args := range st.args {
			g, w := intRun(got, st.sql, args), intRun(want, st.sql, args)
			if g != w {
				t.Errorf("%s: %s %q:\n got %.400s\nwant %.400s", what, st.sql, args, g, w)
			}
			if !strings.HasPrefix(g, "error:") && !strings.HasPrefix(g, "0 rows ") {
				matched++
			}
		}
	}
	return matched
}

// gramCompareAt runs every statement on two snapshots and reports where
// their rows or errors differ.
func gramCompareAt(t *testing.T, what string, got, want codedQuerier) {
	t.Helper()
	for _, st := range gramStatements {
		for _, args := range st.args {
			if g, w := codedAnswer(got, st.sql, args), codedAnswer(want, st.sql, args); g != w {
				t.Errorf("%s: %s %q:\n got %.300s\nwant %.300s", what, st.sql, args, g, w)
			}
		}
	}
}

// gramChanges are the writes after the first comparison: titles changed
// to new trigrams, to ones already held and to NULL, a DML LIKE, deletes,
// keys given out again on new slots (one on the inner side of a join),
// and a bio and a text changed.
var gramChanges = []struct {
	sql  string
	args []any
}{
	{"UPDATE b SET b_title = ? WHERE b_a = ?", []any{"Zebra Quokka Rising", 5}},
	{"UPDATE b SET b_title = NULL WHERE b_a = ?", []any{9}},
	{"UPDATE b SET b_title = ? WHERE b_id = ?", []any{"The Secret City", 10}},
	{"UPDATE b SET b_n = ? WHERE b_title LIKE ?", []any{-1, "%garden%"}},
	{"DELETE FROM b WHERE b_a = ?", []any{33}},
	{"DELETE FROM b WHERE b_id = ?", []any{7}},
	{"INSERT INTO b (b_id, b_title, b_a, b_n) VALUES (?, ?, ?, ?)", []any{7, "Lost Quokka #7", 8, 7}},
	{"UPDATE a SET a_bio = ? WHERE a_id = ?", []any{"Quokka whisperer of the RIVER", 3}},
	{"DELETE FROM a WHERE a_id = ?", []any{15}},
	{"INSERT INTO a (a_id, a_name, a_bio) VALUES (?, ?, ?)", []any{15, "n1", "Zebra tamer"}},
	{"UPDATE w SET w_text = ? WHERE w_id = ?", []any{"alpha quokka", 3}},
}

// TestTrigramSieveMatchesPlainEvaluation is the differential: the sieving
// database and its plain twin, under both engines, after loading, at a
// snapshot taken before the writes (whose own rows affected and cost
// counts must match too) and at the latest timestamp after them, and on a
// clone of the sieving database that replayed the writes from the
// replication log. A third database first sieves after the writes, at the snapshot
// from before them, so that its postings are built from version chains
// that hold old titles.
func TestTrigramSieveMatchesPlainEvaluation(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		t.Run(fmt.Sprintf("mvcc=%v", mvcc), func(t *testing.T) {
			db, c := gramDB(t, mvcc, false)
			twin, tc := gramDB(t, mvcc, true)
			late, lc := gramDB(t, mvcc, false)
			for _, c := range []*sqldb.Conn{c, tc, lc} {
				gramLoad(t, c)
			}
			if n := gramCompare(t, "loaded", db, twin); n < 30 {
				t.Fatalf("only %d executions returned rows: the statements test little", n)
			}
			if built := sqldb.GramsBuilt(db); !slices.Equal(built, []string{"a.a_bio", "b.b_title", "w.w_text"}) {
				t.Errorf("trigram postings built for %v, want a.a_bio, b.b_title and w.w_text", built)
			}
			if built := sqldb.GramsBuilt(twin); len(built) > 0 {
				t.Errorf("the twin built trigram postings for %v", built)
			}
			if built := sqldb.PostingsBuilt(db); slices.Contains(built, "b.b_title") || slices.Contains(built, "a.a_bio") {
				t.Errorf("code postings built for %v: b.b_title and a.a_bio lost their dictionaries first", built)
			}

			log := db.EnableReplLog()
			clone, asOf := db.CloneSnapshot()
			snap, twinSnap, lateSnap := db.Snapshot(), twin.Snapshot(), late.Snapshot()
			defer snap.Close()
			defer twinSnap.Close()
			defer lateSnap.Close()
			for _, w := range gramChanges {
				g, want := intRun(db, w.sql, w.args), intRun(twin, w.sql, w.args)
				if g != want {
					t.Errorf("%s %v:\n got %s\nwant %s", w.sql, w.args, g, want)
				}
				codedExec(t, lc, w.sql, w.args...)
			}
			for i := 1000; i < 1100; i++ {
				args := []any{i, fmt.Sprintf("Xylem %s #%d", gramWords[i%len(gramWords)], i), 1 + i%300, i}
				for _, c := range []*sqldb.Conn{c, tc, lc} {
					codedExec(t, c, "INSERT INTO b (b_id, b_title, b_a, b_n) VALUES (?, ?, ?, ?)", args...)
				}
			}
			// New trigrams once the sets have grown.
			for _, c := range []*sqldb.Conn{c, tc, lc} {
				codedExec(t, c, "UPDATE b SET b_title = ? WHERE b_id = ?", "Fjord Vortex", 20)
			}
			if len(sqldb.GramsBuilt(late)) > 0 {
				t.Fatal("the late database sieved before its snapshot did")
			}
			gramCompareAt(t, "snapshot before the writes", snap, twinSnap)
			gramCompareAt(t, "built after the writes, snapshot before them", lateSnap, twinSnap)
			gramCompare(t, "latest", db, twin)
			gramCompare(t, "built after the writes, latest", late, twin)

			cc := clone.Connect()
			defer cc.Close()
			codedReplay(t, log, asOf, cc)
			gramCompare(t, "clone after replay", clone, twin)
			for name, d := range map[string]*sqldb.DB{"sieving": db, "twin": twin, "late": late, "clone": clone} {
				if errs := sqldb.GramErrors(d); len(errs) > 0 {
					t.Errorf("%s: %d faults in its trigram postings: %v", name, len(errs), errs[:min(len(errs), 5)])
				}
			}
			if built := sqldb.GramsBuilt(clone); len(built) != 3 {
				t.Errorf("the clone built trigram postings for %v, want its own three", built)
			}
		})
	}
}

// TestTrigramSieveWhileWriterRetitles runs snapshot readers that scan r
// and probe it from j through the trigram postings of r.title, and
// connection readers at the latest timestamp, against a writer that
// retitles rows, to new trigrams and to NULL, gives keys out again on new
// slots, and adds rows until the table outgrows its postings. At every
// snapshot, each sieved statement must return what the same snapshot's
// unsieved statement, filtered here, holds. Run under -race.
func TestTrigramSieveWhileWriterRetitles(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		t.Run(fmt.Sprintf("mvcc=%v", mvcc), func(t *testing.T) {
			db := sqldb.OpenChecked(t, sqldb.Options{Cost: sqldb.ZeroCostModel()})
			db.SetMVCC(mvcc)
			db.MustCreateTable(sqldb.Schema{Table: "r", PrimaryKey: "id", Columns: []sqldb.Column{
				{Name: "id", Type: sqldb.Int}, {Name: "title", Type: sqldb.String}}})
			db.MustCreateTable(sqldb.Schema{Table: "j", PrimaryKey: "jid", Columns: []sqldb.Column{
				{Name: "jid", Type: sqldb.Int}, {Name: "jr", Type: sqldb.Int}}})
			w := db.Connect()
			defer w.Close()
			// 300 distinct titles: the dictionary is gone before any LIKE.
			for i := 0; i < 300; i++ {
				codedExec(t, w, "INSERT INTO r (id, title) VALUES (?, ?)", i, gramRetitle(i, i))
			}
			for i := 0; i < 300; i++ {
				codedExec(t, w, "INSERT INTO j (jid, jr) VALUES (?, ?)", i, i%320)
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
						if !gramSnapshotAgrees(t, db, c, rng) {
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
				var title any = gramRetitle(rng.Intn(1000), i)
				if i%9 == 0 {
					title = nil
				}
				codedExec(t, w, "UPDATE r SET title = ? WHERE id = ?", title, rng.Intn(300))
				switch i % 4 {
				case 1: // the key moves to a new slot, with another title
					k := rng.Intn(300)
					codedExec(t, w, "DELETE FROM r WHERE id = ?", k)
					codedExec(t, w, "INSERT INTO r (id, title) VALUES (?, ?)", k, gramRetitle(rng.Intn(1000), i))
				case 3: // a key j may already point at
					codedExec(t, w, "INSERT INTO r (id, title) VALUES (?, ?)", 300+i/4, gramRetitle(i, i))
				case 2:
					next++
					codedExec(t, w, "INSERT INTO r (id, title) VALUES (?, ?)", next, gramRetitle(i, i))
				}
				runtime.Gosched() // let the readers in between writes
			}
			stop.Store(true)
			wg.Wait()
			t.Logf("%d checks", checks.Load())
			if checks.Load() == 0 {
				t.Fatal("no reader finished a check")
			}
			if built := sqldb.GramsBuilt(db); !slices.Equal(built, []string{"r.title"}) {
				t.Errorf("trigram postings built for %v, want r.title", built)
			}
			if errs := sqldb.GramErrors(db); len(errs) > 0 {
				t.Errorf("%v", errs[:min(len(errs), 5)])
			}
		})
	}
}

// gramRetitle is a title made of two of gramWords, and, from the writer's
// 150th write on, of a word whose trigrams no earlier title held.
func gramRetitle(k, write int) string {
	title := fmt.Sprintf("%s %s #%d", gramWords[k%len(gramWords)], gramWords[k/len(gramWords)%len(gramWords)], k)
	if write >= 150 && k%3 == 0 {
		title += " Quokka"
	}
	return title
}

// gramPatterns are the patterns the readers search for, each a %word%
// whose word is letters and spaces.
var gramPatterns = []string{"secret", "city", "river gar", "night", "quokka", "shadow the", "zzyzx"}

// gramSnapshotAgrees takes a snapshot and compares a sieved scan and a
// sieved join with the snapshot's whole scan and whole join filtered in
// Go; then runs the sieved scan on c at the latest timestamp and checks
// each row it returns.
func gramSnapshotAgrees(t *testing.T, db *sqldb.DB, c *sqldb.Conn, rng *rand.Rand) bool {
	snap := db.Snapshot()
	defer snap.Close()
	word := gramPatterns[rng.Intn(len(gramPatterns))]
	arg := "%" + strings.ToUpper(word) + "%"
	keep := func(v sqldb.Value) bool {
		s, ok := v.(string)
		return ok && strings.Contains(strings.ToLower(s), word)
	}
	scan := "SELECT id, title FROM r WHERE title LIKE ?"
	for _, st := range []struct{ all, sieved string }{
		{"SELECT id, title FROM r", scan},
		{"SELECT jid, id, title FROM j JOIN r ON jr = id", "SELECT jid, id, title FROM j JOIN r ON jr = id WHERE title LIKE ?"},
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
