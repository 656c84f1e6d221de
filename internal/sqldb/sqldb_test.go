package sqldb

import (
	"sync"
	"testing"
	"time"
)

// newTestDB builds a db with a small books/authors schema used across
// tests. Cost model is zero so tests run instantly.
func newTestDB(t *testing.T) (*DB, *Conn) {
	t.Helper()
	db := Open(Options{Cost: ZeroCostModel()})
	db.MustCreateTable(Schema{
		Table: "author",
		Columns: []Column{
			{Name: "a_id", Type: Int},
			{Name: "a_name", Type: String},
		},
		PrimaryKey: "a_id",
	})
	db.MustCreateTable(Schema{
		Table: "book",
		Columns: []Column{
			{Name: "b_id", Type: Int},
			{Name: "b_title", Type: String},
			{Name: "b_a_id", Type: Int},
			{Name: "b_price", Type: Float},
			{Name: "b_stock", Type: Int},
			{Name: "b_pub", Type: Time},
		},
		PrimaryKey: "b_id",
		Indexes:    []string{"b_a_id"},
	})
	c := db.Connect()
	t.Cleanup(c.Close)

	mustExec(t, c, "INSERT INTO author (a_id, a_name) VALUES (1, 'Knuth')")
	mustExec(t, c, "INSERT INTO author (a_id, a_name) VALUES (2, 'Pike')")
	pub := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	books := []struct {
		id     int
		title  string
		author int
		price  float64
		stock  int
		off    int
	}{
		{1, "TAOCP Volume 1", 1, 99.99, 10, 0},
		{2, "TAOCP Volume 2", 1, 89.99, 0, 365},
		{3, "The Go Programming Language", 2, 39.99, 25, 730},
		{4, "The Unix Programming Environment", 2, 29.99, 5, 1095},
	}
	for _, b := range books {
		if _, err := c.Exec(
			"INSERT INTO book (b_id, b_title, b_a_id, b_price, b_stock, b_pub) VALUES (?, ?, ?, ?, ?, ?)",
			b.id, b.title, b.author, b.price, b.stock, pub.AddDate(0, 0, b.off)); err != nil {
			t.Fatal(err)
		}
	}
	return db, c
}

func mustExec(t *testing.T, c *Conn, sql string, args ...any) ExecResult {
	t.Helper()
	res, err := c.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func mustQuery(t *testing.T, c *Conn, sql string, args ...any) *ResultSet {
	t.Helper()
	rs, err := c.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rs
}

func TestSelectAll(t *testing.T) {
	_, c := newTestDB(t)
	rs := mustQuery(t, c, "SELECT * FROM book")
	if rs.Len() != 4 {
		t.Fatalf("Len = %d, want 4", rs.Len())
	}
	if len(rs.Columns) != 6 {
		t.Fatalf("Columns = %v", rs.Columns)
	}
}

func TestSelectByPrimaryKey(t *testing.T) {
	_, c := newTestDB(t)
	rs := mustQuery(t, c, "SELECT b_title FROM book WHERE b_id = ?", 3)
	if rs.Len() != 1 || rs.Str(0, "b_title") != "The Go Programming Language" {
		t.Fatalf("got %v", rs.Rows)
	}
}

func TestSelectBySecondaryIndex(t *testing.T) {
	_, c := newTestDB(t)
	rs := mustQuery(t, c, "SELECT b_id FROM book WHERE b_a_id = ?", 1)
	if rs.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rs.Len())
	}
}

func TestWhereOperators(t *testing.T) {
	_, c := newTestDB(t)
	tests := []struct {
		where string
		args  []any
		want  int
	}{
		{"b_price > 50", nil, 2},
		{"b_price >= 89.99", nil, 2},
		{"b_price < 40 AND b_stock > 0", nil, 2},
		{"b_price < 40 OR b_price > 90", nil, 3},
		{"NOT b_stock = 0", nil, 3},
		{"b_id != 1", nil, 3},
		{"b_id <> 1", nil, 3},
		{"b_stock = 0", nil, 1},
		{"b_id IN (1, 3)", nil, 2},
		{"b_id NOT IN (1, 2, 3)", nil, 1},
		{"b_title LIKE '%programming%'", nil, 2},
		{"b_title NOT LIKE '%TAOCP%'", nil, 2},
		{"b_title LIKE ?", []any{"TAOCP Volume _"}, 2},
		{"(b_id = 1 OR b_id = 2) AND b_stock > 0", nil, 1},
	}
	for _, tt := range tests {
		rs := mustQuery(t, c, "SELECT b_id FROM book WHERE "+tt.where, tt.args...)
		if rs.Len() != tt.want {
			t.Errorf("WHERE %s: got %d rows, want %d", tt.where, rs.Len(), tt.want)
		}
	}
}

func TestIsNull(t *testing.T) {
	db := Open(Options{Cost: ZeroCostModel()})
	db.MustCreateTable(Schema{
		Table:      "t",
		Columns:    []Column{{Name: "id", Type: Int}, {Name: "v", Type: String}},
		PrimaryKey: "id",
	})
	c := db.Connect()
	defer c.Close()
	mustExec(t, c, "INSERT INTO t (id, v) VALUES (1, 'x')")
	mustExec(t, c, "INSERT INTO t (id, v) VALUES (2, NULL)")
	if rs := mustQuery(t, c, "SELECT id FROM t WHERE v IS NULL"); rs.Len() != 1 || rs.Int(0, "id") != 2 {
		t.Fatalf("IS NULL: %v", rs.Rows)
	}
	if rs := mustQuery(t, c, "SELECT id FROM t WHERE v IS NOT NULL"); rs.Len() != 1 || rs.Int(0, "id") != 1 {
		t.Fatalf("IS NOT NULL: %v", rs.Rows)
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	_, c := newTestDB(t)
	rs := mustQuery(t, c, "SELECT b_id, b_price FROM book ORDER BY b_price DESC LIMIT 2")
	if rs.Len() != 2 || rs.Int(0, "b_id") != 1 || rs.Int(1, "b_id") != 2 {
		t.Fatalf("got %v", rs.Rows)
	}
	rs = mustQuery(t, c, "SELECT b_id FROM book ORDER BY b_price ASC LIMIT 2 OFFSET 1")
	if rs.Len() != 2 || rs.Int(0, "b_id") != 3 {
		t.Fatalf("offset got %v", rs.Rows)
	}
}

func TestOrderByTime(t *testing.T) {
	_, c := newTestDB(t)
	rs := mustQuery(t, c, "SELECT b_id FROM book ORDER BY b_pub DESC LIMIT 1")
	if rs.Int(0, "b_id") != 4 {
		t.Fatalf("latest book = %v", rs.Rows)
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	_, c := newTestDB(t)
	rs := mustQuery(t, c, "SELECT b_a_id, b_id FROM book ORDER BY b_a_id ASC, b_price ASC")
	wantIDs := []int64{2, 1, 4, 3}
	for i, want := range wantIDs {
		if got := rs.Int(i, "b_id"); got != want {
			t.Fatalf("row %d: b_id = %d, want %d (rows %v)", i, got, want, rs.Rows)
		}
	}
}

func TestJoinTwoTables(t *testing.T) {
	_, c := newTestDB(t)
	rs := mustQuery(t, c,
		"SELECT b_title, a_name FROM book JOIN author ON b_a_id = a_id WHERE a_name = 'Pike' ORDER BY b_title")
	if rs.Len() != 2 {
		t.Fatalf("Len = %d, want 2: %v", rs.Len(), rs.Rows)
	}
	if rs.Str(0, "a_name") != "Pike" {
		t.Fatalf("got %v", rs.Rows)
	}
}

func TestJoinWithAliases(t *testing.T) {
	_, c := newTestDB(t)
	rs := mustQuery(t, c,
		"SELECT b.b_title, a.a_name FROM book b INNER JOIN author a ON b.b_a_id = a.a_id WHERE a.a_id = ?", 1)
	if rs.Len() != 2 {
		t.Fatalf("Len = %d: %v", rs.Len(), rs.Rows)
	}
}

func TestThreeTableJoin(t *testing.T) {
	db, c := newTestDB(t)
	db.MustCreateTable(Schema{
		Table: "review",
		Columns: []Column{
			{Name: "r_id", Type: Int},
			{Name: "r_b_id", Type: Int},
			{Name: "r_stars", Type: Int},
		},
		PrimaryKey: "r_id",
		Indexes:    []string{"r_b_id"},
	})
	mustExec(t, c, "INSERT INTO review (r_id, r_b_id, r_stars) VALUES (1, 3, 5)")
	mustExec(t, c, "INSERT INTO review (r_id, r_b_id, r_stars) VALUES (2, 3, 4)")
	mustExec(t, c, "INSERT INTO review (r_id, r_b_id, r_stars) VALUES (3, 1, 3)")
	rs := mustQuery(t, c,
		"SELECT a_name, b_title, r_stars FROM review JOIN book ON r_b_id = b_id JOIN author ON b_a_id = a_id WHERE r_stars >= 4")
	if rs.Len() != 2 {
		t.Fatalf("Len = %d: %v", rs.Len(), rs.Rows)
	}
	for i := 0; i < rs.Len(); i++ {
		if rs.Str(i, "a_name") != "Pike" {
			t.Fatalf("row %d: %v", i, rs.Rows[i])
		}
	}
}

func TestAggregates(t *testing.T) {
	_, c := newTestDB(t)
	rs := mustQuery(t, c, "SELECT COUNT(*) AS n, SUM(b_stock) AS total, AVG(b_price) AS avgp, MIN(b_price) AS lo, MAX(b_price) AS hi FROM book")
	if rs.Int(0, "n") != 4 {
		t.Fatalf("count = %d", rs.Int(0, "n"))
	}
	if rs.Int(0, "total") != 40 {
		t.Fatalf("sum = %d", rs.Int(0, "total"))
	}
	if got := rs.Float(0, "avgp"); got < 64.98 || got > 65.0 {
		t.Fatalf("avg = %v", got)
	}
	if rs.Float(0, "lo") != 29.99 || rs.Float(0, "hi") != 99.99 {
		t.Fatalf("min/max = %v/%v", rs.Get(0, "lo"), rs.Get(0, "hi"))
	}
}

func TestGroupBy(t *testing.T) {
	_, c := newTestDB(t)
	rs := mustQuery(t, c,
		"SELECT b_a_id, COUNT(*) AS n, SUM(b_price) AS total FROM book GROUP BY b_a_id ORDER BY b_a_id")
	if rs.Len() != 2 {
		t.Fatalf("groups = %d", rs.Len())
	}
	if rs.Int(0, "n") != 2 || rs.Int(1, "n") != 2 {
		t.Fatalf("counts: %v", rs.Rows)
	}
	if got := rs.Float(0, "total"); got < 189.97 || got > 189.99 {
		t.Fatalf("author 1 total = %v", got)
	}
}

func TestGroupByOrderByAggregateAlias(t *testing.T) {
	// The TPC-W best-sellers shape: order by an aggregate alias, DESC,
	// with LIMIT.
	_, c := newTestDB(t)
	rs := mustQuery(t, c,
		"SELECT b_a_id, SUM(b_stock) AS qty FROM book GROUP BY b_a_id ORDER BY qty DESC LIMIT 1")
	if rs.Len() != 1 || rs.Int(0, "b_a_id") != 2 || rs.Int(0, "qty") != 30 {
		t.Fatalf("got %v", rs.Rows)
	}
}

func TestUpdate(t *testing.T) {
	_, c := newTestDB(t)
	res := mustExec(t, c, "UPDATE book SET b_stock = ? WHERE b_id = ?", 99, 2)
	if res.RowsAffected != 1 {
		t.Fatalf("RowsAffected = %d", res.RowsAffected)
	}
	rs := mustQuery(t, c, "SELECT b_stock FROM book WHERE b_id = 2")
	if rs.Int(0, "b_stock") != 99 {
		t.Fatalf("stock = %d", rs.Int(0, "b_stock"))
	}
}

func TestUpdateSecondaryIndexMaintained(t *testing.T) {
	_, c := newTestDB(t)
	mustExec(t, c, "UPDATE book SET b_a_id = ? WHERE b_id = ?", 2, 1)
	if rs := mustQuery(t, c, "SELECT b_id FROM book WHERE b_a_id = 1"); rs.Len() != 1 {
		t.Fatalf("author 1 rows = %d, want 1", rs.Len())
	}
	if rs := mustQuery(t, c, "SELECT b_id FROM book WHERE b_a_id = 2"); rs.Len() != 3 {
		t.Fatalf("author 2 rows = %d, want 3", rs.Len())
	}
}

func TestUpdateFromColumn(t *testing.T) {
	_, c := newTestDB(t)
	// SET col = other-col (row-dependent RHS).
	mustExec(t, c, "UPDATE book SET b_stock = b_id WHERE b_id = 4")
	rs := mustQuery(t, c, "SELECT b_stock FROM book WHERE b_id = 4")
	if rs.Int(0, "b_stock") != 4 {
		t.Fatalf("stock = %d", rs.Int(0, "b_stock"))
	}
}

func TestDelete(t *testing.T) {
	_, c := newTestDB(t)
	res := mustExec(t, c, "DELETE FROM book WHERE b_a_id = ?", 1)
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d", res.RowsAffected)
	}
	if rs := mustQuery(t, c, "SELECT * FROM book"); rs.Len() != 2 {
		t.Fatalf("remaining = %d", rs.Len())
	}
	// Index must not resurrect deleted rows.
	if rs := mustQuery(t, c, "SELECT * FROM book WHERE b_a_id = 1"); rs.Len() != 0 {
		t.Fatalf("deleted rows visible via index: %v", rs.Rows)
	}
}

func TestAutoIncrementPK(t *testing.T) {
	_, c := newTestDB(t)
	res := mustExec(t, c, "INSERT INTO author (a_id, a_name) VALUES (NULL, 'Thompson')")
	if res.LastInsertID != 3 {
		t.Fatalf("LastInsertID = %d, want 3", res.LastInsertID)
	}
	rs := mustQuery(t, c, "SELECT a_name FROM author WHERE a_id = 3")
	if rs.Str(0, "a_name") != "Thompson" {
		t.Fatalf("got %v", rs.Rows)
	}
}

func TestDuplicatePKRejected(t *testing.T) {
	_, c := newTestDB(t)
	if _, err := c.Exec("INSERT INTO author (a_id, a_name) VALUES (1, 'Dup')"); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
}

func TestTypeChecking(t *testing.T) {
	_, c := newTestDB(t)
	if _, err := c.Exec("INSERT INTO author (a_id, a_name) VALUES (9, ?)", 123); err == nil {
		t.Fatal("int into string column accepted")
	}
	if _, err := c.Exec("UPDATE book SET b_stock = ? WHERE b_id = 1", "lots"); err == nil {
		t.Fatal("string into int column accepted")
	}
}

func TestIntAcceptedByFloatColumn(t *testing.T) {
	_, c := newTestDB(t)
	mustExec(t, c, "UPDATE book SET b_price = ? WHERE b_id = 1", 50)
	rs := mustQuery(t, c, "SELECT b_price FROM book WHERE b_id = 1")
	if rs.Float(0, "b_price") != 50 {
		t.Fatalf("price = %v", rs.Get(0, "b_price"))
	}
}

func TestParseErrors(t *testing.T) {
	_, c := newTestDB(t)
	for _, sql := range []string{
		"",
		"SELEC * FROM book",
		"SELECT FROM book",
		"SELECT * FROM",
		"SELECT * FROM book WHERE",
		"SELECT * FROM book LIMIT -1",
		"INSERT INTO book VALUES (1)",
		"INSERT INTO book (b_id) VALUES (1, 2)",
		"UPDATE book WHERE b_id = 1",
		"DELETE book",
		"SELECT * FROM book ORDER",
		"SELECT SUM(*) FROM book",
		"SELECT * FROM book WHERE b_id = 'unterminated",
	} {
		if _, err := c.Query(sql); err == nil {
			t.Errorf("Query(%q) succeeded, want error", sql)
		}
	}
}

func TestSemanticErrors(t *testing.T) {
	_, c := newTestDB(t)
	for _, sql := range []string{
		"SELECT * FROM nosuch",
		"SELECT nosuchcol FROM book",
		"SELECT * FROM book WHERE nosuch = 1",
		"SELECT b_id FROM book JOIN author ON b_id = b_a_id", // join not relating the new table
		"SELECT * FROM book, author",                         // no comma joins
	} {
		if _, err := c.Query(sql); err == nil {
			t.Errorf("Query(%q) succeeded, want error", sql)
		}
	}
	if _, err := c.Exec("INSERT INTO book (nosuch) VALUES (1)"); err == nil {
		t.Error("INSERT into unknown column accepted")
	}
}

func TestQueryVsExecMismatch(t *testing.T) {
	_, c := newTestDB(t)
	if _, err := c.Query("DELETE FROM book"); err == nil {
		t.Fatal("Query accepted DML")
	}
	if _, err := c.Exec("SELECT * FROM book"); err == nil {
		t.Fatal("Exec accepted SELECT")
	}
}

func TestMissingPlaceholderArg(t *testing.T) {
	_, c := newTestDB(t)
	if _, err := c.Query("SELECT * FROM book WHERE b_id = ?"); err == nil {
		t.Fatal("missing placeholder argument accepted")
	}
}

func TestConnClosed(t *testing.T) {
	db, _ := newTestDB(t)
	c2 := db.Connect()
	c2.Close()
	if _, err := c2.Query("SELECT * FROM book"); err != ErrConnClosed {
		t.Fatalf("err = %v, want ErrConnClosed", err)
	}
	c2.Close() // idempotent
}

func TestResultSetHelpers(t *testing.T) {
	_, c := newTestDB(t)
	rs := mustQuery(t, c, "SELECT b_id, b_title, b_price, b_pub FROM book WHERE b_id = 1")
	if rs.ColIndex("b_title") != 1 || rs.ColIndex("nope") != -1 {
		t.Fatal("ColIndex wrong")
	}
	if rs.Get(99, "b_id") != nil || rs.Get(0, "nope") != nil {
		t.Fatal("out-of-range Get should be nil")
	}
	if rs.TimeVal(0, "b_pub").IsZero() {
		t.Fatal("TimeVal zero")
	}
	if rs.Cell(0, "b_title") != "TAOCP Volume 1" || rs.Cell(0, "nope") != nil || rs.Cell(1, "b_title") != nil {
		t.Fatalf("Cell: %v, %v, %v", rs.Cell(0, "b_title"), rs.Cell(0, "nope"), rs.Cell(1, "b_title"))
	}
	if rs.Int(0, "b_id") != 1 || rs.Float(0, "b_price") != 99.99 || rs.Str(0, "b_title") != "TAOCP Volume 1" {
		t.Fatalf("Int/Float/Str: %v", rs.Rows[0])
	}
	if empty := mustQuery(t, c, "SELECT * FROM book WHERE b_id = 999"); empty.Len() != 0 || empty.Rows == nil {
		t.Fatalf("empty result: %d rows, Rows %v", empty.Len(), empty.Rows)
	}
}

func TestStringEscape(t *testing.T) {
	_, c := newTestDB(t)
	mustExec(t, c, "INSERT INTO author (a_id, a_name) VALUES (10, 'O''Brien')")
	rs := mustQuery(t, c, "SELECT a_name FROM author WHERE a_id = 10")
	if rs.Str(0, "a_name") != "O'Brien" {
		t.Fatalf("got %q", rs.Str(0, "a_name"))
	}
}

func TestSchemaValidation(t *testing.T) {
	db := Open(Options{Cost: ZeroCostModel()})
	for name, s := range map[string]Schema{
		"empty name":     {Columns: []Column{{Name: "a", Type: Int}}},
		"no columns":     {Table: "t"},
		"dup column":     {Table: "t", Columns: []Column{{Name: "a", Type: Int}, {Name: "a", Type: Int}}},
		"bad pk":         {Table: "t", Columns: []Column{{Name: "a", Type: Int}}, PrimaryKey: "b"},
		"non-int pk":     {Table: "t", Columns: []Column{{Name: "a", Type: String}}, PrimaryKey: "a"},
		"unknown index":  {Table: "t", Columns: []Column{{Name: "a", Type: Int}}, Indexes: []string{"zz"}},
		"unnamed column": {Table: "t", Columns: []Column{{Type: Int}}},
	} {
		if err := db.CreateTable(s); err == nil {
			t.Errorf("schema %q accepted", name)
		}
	}
	good := Schema{Table: "t", Columns: []Column{{Name: "a", Type: Int}}}
	if err := db.CreateTable(good); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(good); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

func TestTableNamesAndSize(t *testing.T) {
	db, _ := newTestDB(t)
	names := db.TableNames()
	if len(names) != 2 || names[0] != "author" || names[1] != "book" {
		t.Fatalf("TableNames = %v", names)
	}
	n, err := db.TableSize("book")
	if err != nil || n != 4 {
		t.Fatalf("TableSize = %d, %v", n, err)
	}
	if _, err := db.TableSize("nosuch"); err == nil {
		t.Fatal("TableSize of unknown table succeeded")
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	_, c := newTestDB(t)
	db := c.db
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			conn := db.Connect()
			defer conn.Close()
			for j := 0; j < 50; j++ {
				if n%2 == 0 {
					if _, err := conn.Query("SELECT * FROM book WHERE b_a_id = 1"); err != nil {
						errs <- err
						return
					}
				} else {
					if _, err := conn.Exec("UPDATE book SET b_stock = ? WHERE b_id = 1", j); err != nil {
						errs <- err
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCompareValues(t *testing.T) {
	if c, err := compare(int64(1), 1.5); err != nil || c != -1 {
		t.Fatalf("int vs float: %d, %v", c, err)
	}
	if c, err := compare("a", "b"); err != nil || c != -1 {
		t.Fatalf("strings: %d, %v", c, err)
	}
	if c, err := compare(nil, int64(0)); err != nil || c != -1 {
		t.Fatalf("nil sorts first: %d, %v", c, err)
	}
	if _, err := compare("a", int64(1)); err == nil {
		t.Fatal("string vs int comparable")
	}
	if c, err := compare(false, true); err != nil || c != -1 {
		t.Fatalf("bools: %d, %v", c, err)
	}
	now := time.Now()
	if c, err := compare(now, now.Add(time.Second)); err != nil || c != -1 {
		t.Fatalf("times: %d, %v", c, err)
	}
}

func TestStatementCache(t *testing.T) {
	db, c := newTestDB(t)
	const q = "SELECT * FROM book WHERE b_id = ?"
	for i := 0; i < 10; i++ {
		if _, err := c.Query(q, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, cached := db.stmts.get(q, db.IndexEpoch()); !cached {
		t.Fatal("statement not cached")
	}
	if db.StmtCacheHits() < 9 {
		t.Fatalf("StmtCacheHits = %d, want >= 9", db.StmtCacheHits())
	}
	if db.QueryCount() < 10 {
		t.Fatalf("QueryCount = %d", db.QueryCount())
	}
}

func TestSumIntTypePreserved(t *testing.T) {
	_, c := newTestDB(t)
	rs := mustQuery(t, c, "SELECT SUM(b_stock) AS total FROM book")
	if _, ok := rs.Get(0, "total").(int64); !ok {
		t.Fatalf("SUM over INT column returned %T, want int64", rs.Get(0, "total"))
	}
	rs = mustQuery(t, c, "SELECT SUM(b_price) AS total FROM book")
	if _, ok := rs.Get(0, "total").(float64); !ok {
		t.Fatalf("SUM over FLOAT column returned %T, want float64", rs.Get(0, "total"))
	}
}
