package sqldb

import (
	"testing"
)

// Edge-case coverage for the executor: empty groups, pushdown
// correctness across join depths, and DML on indexed columns.

func TestAggregatesOnEmptyTable(t *testing.T) {
	db := Open(Options{Cost: ZeroCostModel()})
	db.MustCreateTable(Schema{
		Table:      "t",
		Columns:    []Column{{Name: "id", Type: Int}, {Name: "v", Type: Float}},
		PrimaryKey: "id",
	})
	c := db.Connect()
	defer c.Close()
	// SUM comes with a GROUP BY, so an empty input has no rows, not one
	// row of an ungrouped aggregate.
	if rs := mustQuery(t, c, "SELECT id, SUM(v) AS s FROM t GROUP BY id"); rs.Len() != 0 {
		t.Fatalf("rows = %d, want 0", rs.Len())
	}
	mustExec(t, c, "INSERT INTO t (id, v) VALUES (1, NULL)")
	rs := mustQuery(t, c, "SELECT id, SUM(v) AS s FROM t GROUP BY id")
	if rs.Len() != 1 || rs.Float(0, "s") != 0 {
		t.Fatalf("sum of NULL: %v", rs.Rows)
	}
}

func TestGroupByEmptyTableHasNoGroups(t *testing.T) {
	db := Open(Options{Cost: ZeroCostModel()})
	db.MustCreateTable(Schema{
		Table:      "t",
		Columns:    []Column{{Name: "id", Type: Int}, {Name: "g", Type: Int}},
		PrimaryKey: "id",
	})
	c := db.Connect()
	defer c.Close()
	rs := mustQuery(t, c, "SELECT g, SUM(id) AS n FROM t GROUP BY g")
	if rs.Len() != 0 {
		t.Fatalf("groups = %d, want 0", rs.Len())
	}
}

func TestOrderByProjectionAlias(t *testing.T) {
	db, c := newTestDB(t)
	// The one alias is SUM's, and ORDER BY reads it (TestGroupByOrderByAggregateAlias).
	rs := mustQuery(t, c, "SELECT b_id FROM book ORDER BY b_id DESC")
	if rs.Int(0, "b_id") != 4 {
		t.Fatalf("sort: %v", rs.Rows)
	}
	mustNotPrepare(t, db, "SELECT b_id AS ident FROM book ORDER BY ident DESC", "column aliases")
}

func TestPushdownFiltersBeforeJoin(t *testing.T) {
	// A predicate on the FROM table must not depend on join success:
	// rows failing it are never joined, and the result matches the
	// unfiltered join intersected with the predicate.
	_, c := newTestDB(t)
	all := mustQuery(t, c,
		"SELECT b_id FROM book JOIN author ON b_a_id = a_id WHERE b_price > 50 ORDER BY b_id")
	if all.Len() != 2 || all.Int(0, "b_id") != 1 || all.Int(1, "b_id") != 2 {
		t.Fatalf("pushdown result: %v", all.Rows)
	}
	// Predicate on the joined table only.
	byAuthor := mustQuery(t, c,
		"SELECT b_id FROM book JOIN author ON b_a_id = a_id WHERE a_name = 'Knuth' ORDER BY b_id")
	if byAuthor.Len() != 2 {
		t.Fatalf("join-side predicate: %v", byAuthor.Rows)
	}
	// Conjuncts on both sides, each applied at its own depth.
	mixed := mustQuery(t, c,
		"SELECT b_id FROM book JOIN author ON b_a_id = a_id WHERE a_name = 'Knuth' AND b_price > 95")
	if mixed.Len() != 1 || mixed.Int(0, "b_id") != 1 {
		t.Fatalf("both sides: %v", mixed.Rows)
	}
}

func TestUpdatePrimaryKeyRewiresIndex(t *testing.T) {
	_, c := newTestDB(t)
	mustExec(t, c, "UPDATE author SET a_id = ? WHERE a_id = ?", 50, 1)
	if rs := mustQuery(t, c, "SELECT a_name FROM author WHERE a_id = 50"); rs.Str(0, "a_name") != "Knuth" {
		t.Fatalf("moved pk: %v", rs.Rows)
	}
	if rs := mustQuery(t, c, "SELECT * FROM author WHERE a_id = 1"); rs.Len() != 0 {
		t.Fatal("old pk still resolves")
	}
	// Collision with an existing key must fail.
	if _, err := c.Exec("UPDATE author SET a_id = 2 WHERE a_id = 50"); err == nil {
		t.Fatal("pk collision accepted")
	}
}

func TestDeleteThenReinsertSamePK(t *testing.T) {
	_, c := newTestDB(t)
	mustExec(t, c, "DELETE FROM author WHERE a_id = 1")
	mustExec(t, c, "INSERT INTO author (a_id, a_name) VALUES (1, 'Again')")
	rs := mustQuery(t, c, "SELECT a_name FROM author WHERE a_id = 1")
	if rs.Str(0, "a_name") != "Again" {
		t.Fatalf("reinsert: %v", rs.Rows)
	}
}

func TestLimitZero(t *testing.T) {
	_, c := newTestDB(t)
	if rs := mustQuery(t, c, "SELECT * FROM book LIMIT 0"); rs.Len() != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", rs.Len())
	}
	if rs := mustQuery(t, c, "SELECT b_id FROM book ORDER BY b_id LIMIT 0"); rs.Len() != 0 {
		t.Fatalf("ordered LIMIT 0 returned %d rows", rs.Len())
	}
	if rs := mustQuery(t, c, "SELECT * FROM book LIMIT 99"); rs.Len() != 4 {
		t.Fatalf("big LIMIT returned %d rows", rs.Len())
	}
}

func TestSelectStarWithJoin(t *testing.T) {
	_, c := newTestDB(t)
	rs := mustQuery(t, c, "SELECT * FROM book JOIN author ON b_a_id = a_id WHERE b_id = 1")
	if len(rs.Columns) != 6+2 {
		t.Fatalf("star join columns = %v", rs.Columns)
	}
	if rs.Str(0, "a_name") != "Knuth" {
		t.Fatalf("joined star row: %v", rs.Rows)
	}
	// Star and columns together.
	rs = mustQuery(t, c, "SELECT b_title, * FROM book JOIN author ON b_a_id = a_id WHERE b_id = 1")
	if len(rs.Columns) != 1+6+2 || rs.Str(0, "b_title") != "TAOCP Volume 1" {
		t.Fatalf("star after a column: %v %v", rs.Columns, rs.Rows)
	}
}

func TestAmbiguousColumnRejected(t *testing.T) {
	db := Open(Options{Cost: ZeroCostModel()})
	for _, name := range []string{"x", "y"} {
		db.MustCreateTable(Schema{
			Table:      name,
			Columns:    []Column{{Name: name + "id", Type: Int}, {Name: "same", Type: Int}},
			PrimaryKey: name + "id",
		})
	}
	c := db.Connect()
	defer c.Close()
	mustExec(t, c, "INSERT INTO x (xid, same) VALUES (1, 1)")
	mustExec(t, c, "INSERT INTO y (yid, same) VALUES (1, 1)")
	for _, sql := range []string{
		"SELECT same FROM x JOIN y ON xid = yid",
		"SELECT xid FROM x JOIN y ON xid = yid WHERE same = 1",
		"SELECT xid FROM x JOIN y ON same = same",
	} {
		if _, err := c.Query(sql); err == nil {
			t.Errorf("%q: ambiguous column accepted", sql)
		}
	}
}

func TestInWithPlaceholders(t *testing.T) {
	db, c := newTestDB(t)
	// IN is not in the grammar; a page asks for one key at a time.
	mustNotPrepare(t, db, "SELECT b_id FROM book WHERE b_id IN (?, ?, ?)", `"IN"`)
	if rs := mustQuery(t, c, "SELECT b_id FROM book WHERE b_id = ?", 3); rs.Len() != 1 {
		t.Fatalf("placeholder: %v", rs.Rows)
	}
}
