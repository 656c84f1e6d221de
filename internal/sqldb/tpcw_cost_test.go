package sqldb_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
	"time"

	"stagedweb/internal/sqldb"
	"stagedweb/internal/tpcw"
)

// Paper time is computed from the cost counters, so a change to the
// executor must leave them identical statement for statement. This test
// runs every statement text of internal/tpcw/handlers.go, in page order
// and with fixed arguments, over a seeded TPC-W population and compares
// each statement's counters with values recorded from the executor of
// the commit before the streaming rewrite (PR 12, 69cae6b).
//
// Three rows differ from that record: the first cart-line DELETE and
// both cart existence SELECTs probe the scl_sc_id index, where
// cost-ranked planning scanned the then empty (or two-row) cart-line
// table.

var costTime = time.Date(2008, 7, 1, 12, 0, 0, 0, time.UTC)

// tpcwStatements is one pass over the application's statements. The
// order matters: the cart and order statements read what earlier ones
// wrote. plain and indexed are the counters under the paper's schema and
// after tpcw.CreateExtraIndexes; rows is the result or affected count.
var tpcwStatements = []struct {
	sql            string
	args           []any
	plain, indexed sqldb.CostCounts
	rows           int
}{
	{sql: "SELECT c_fname, c_lname FROM customer WHERE c_id = ?", args: []any{7},
		plain: sqldb.CostCounts{Probes: 1, Matched: 1}, indexed: sqldb.CostCounts{Probes: 1, Matched: 1}, rows: 1},
	{sql: "SELECT i_id, i_title, i_thumbnail FROM item WHERE i_id = ?", args: []any{42},
		plain: sqldb.CostCounts{Probes: 1, Matched: 1}, indexed: sqldb.CostCounts{Probes: 1, Matched: 1}, rows: 1},
	{sql: "INSERT INTO shopping_cart (sc_id, sc_time) VALUES (NULL, ?)", args: []any{costTime},
		plain: sqldb.CostCounts{Written: 1}, indexed: sqldb.CostCounts{Written: 1}, rows: 1},
	{sql: "DELETE FROM shopping_cart_line WHERE scl_sc_id = ?", args: []any{999},
		plain: sqldb.CostCounts{Probes: 1}, indexed: sqldb.CostCounts{Probes: 1}, rows: 0},
	{sql: "SELECT scl_id, scl_qty FROM shopping_cart_line WHERE scl_sc_id = ? AND scl_i_id = ?", args: []any{1, 42},
		plain: sqldb.CostCounts{Probes: 1}, indexed: sqldb.CostCounts{Probes: 1}, rows: 0},
	{sql: "INSERT INTO shopping_cart_line (scl_id, scl_sc_id, scl_i_id, scl_qty) VALUES (NULL, ?, ?, ?)", args: []any{1, 42, 1},
		plain: sqldb.CostCounts{Written: 1}, indexed: sqldb.CostCounts{Written: 1}, rows: 1},
	{sql: "INSERT INTO shopping_cart_line (scl_id, scl_sc_id, scl_i_id, scl_qty) VALUES (NULL, ?, ?, ?)", args: []any{1, 77, 2},
		plain: sqldb.CostCounts{Written: 1}, indexed: sqldb.CostCounts{Written: 1}, rows: 1},
	{sql: "SELECT scl_id, scl_qty FROM shopping_cart_line WHERE scl_sc_id = ? AND scl_i_id = ?", args: []any{1, 42},
		plain: sqldb.CostCounts{Probes: 3, Matched: 1}, indexed: sqldb.CostCounts{Probes: 3, Matched: 1}, rows: 1},
	{sql: "UPDATE shopping_cart_line SET scl_qty = ? WHERE scl_id = ?", args: []any{3, 1},
		plain: sqldb.CostCounts{Probes: 1, Written: 1}, indexed: sqldb.CostCounts{Probes: 1, Written: 1}, rows: 1},
	{sql: "SELECT scl_i_id, scl_qty, i_id, i_title, i_cost FROM shopping_cart_line JOIN item ON scl_i_id = i_id WHERE scl_sc_id = ?", args: []any{1},
		plain: sqldb.CostCounts{Probes: 5, Matched: 2}, indexed: sqldb.CostCounts{Probes: 5, Matched: 2}, rows: 2},
	{sql: "SELECT * FROM customer WHERE c_uname = ?", args: []any{tpcw.Uname(9)},
		plain: sqldb.CostCounts{Probes: 2, Matched: 1}, indexed: sqldb.CostCounts{Probes: 2, Matched: 1}, rows: 1},
	{sql: "SELECT * FROM customer WHERE c_id = ?", args: []any{9},
		plain: sqldb.CostCounts{Probes: 1, Matched: 1}, indexed: sqldb.CostCounts{Probes: 1, Matched: 1}, rows: 1},
	{sql: "SELECT addr_street1, addr_city, addr_state, addr_zip, co_name FROM address JOIN country ON addr_co_id = co_id WHERE addr_id = ?", args: []any{11},
		plain: sqldb.CostCounts{Probes: 2, Matched: 1}, indexed: sqldb.CostCounts{Probes: 2, Matched: 1}, rows: 1},
	{sql: "INSERT INTO orders (o_id, o_c_id, o_date, o_sub_total, o_total, o_ship_type, o_ship_date, o_bill_addr_id, o_ship_addr_id, o_status) VALUES (NULL, ?, ?, ?, ?, ?, ?, ?, ?, ?)", args: []any{9, costTime, 30.5, 33.02, "AIR", costTime.AddDate(0, 0, 3), 9, 9, "PENDING"},
		plain: sqldb.CostCounts{Written: 1}, indexed: sqldb.CostCounts{Written: 1}, rows: 1},
	{sql: "INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount, ol_comments) VALUES (NULL, ?, ?, ?, 0.0, '')", args: []any{201, 42, 3},
		plain: sqldb.CostCounts{Written: 1}, indexed: sqldb.CostCounts{Written: 1}, rows: 1},
	{sql: "INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount, ol_comments) VALUES (NULL, ?, ?, ?, 0.0, '')", args: []any{201, 77, 2},
		plain: sqldb.CostCounts{Written: 1}, indexed: sqldb.CostCounts{Written: 1}, rows: 1},
	{sql: "INSERT INTO cc_xacts (cx_o_id, cx_type, cx_num, cx_name, cx_expire, cx_xact_amt, cx_xact_date, cx_co_id) VALUES (?, 'VISA', '4111111111111111', 'CARD HOLDER', ?, ?, ?, 1)", args: []any{201, costTime.AddDate(2, 0, 0), 33.02, costTime},
		plain: sqldb.CostCounts{Written: 1}, indexed: sqldb.CostCounts{Written: 1}, rows: 1},
	{sql: "DELETE FROM shopping_cart_line WHERE scl_sc_id = ?", args: []any{1},
		plain: sqldb.CostCounts{Probes: 3, Written: 2}, indexed: sqldb.CostCounts{Probes: 3, Written: 2}, rows: 2},
	{sql: "SELECT * FROM orders WHERE o_c_id = ? ORDER BY o_date DESC, o_id DESC LIMIT 1", args: []any{9},
		plain: sqldb.CostCounts{Probes: 3, Matched: 2, Sorted: 2}, indexed: sqldb.CostCounts{Probes: 3, Matched: 2, Sorted: 2}, rows: 1},
	{sql: "SELECT ol_i_id, ol_qty, i_title, i_cost FROM order_line JOIN item ON ol_i_id = i_id WHERE ol_o_id = ?", args: []any{201},
		plain: sqldb.CostCounts{Probes: 5, Matched: 2}, indexed: sqldb.CostCounts{Probes: 112, Matched: 2}, rows: 2},
	{sql: "SELECT i_id, i_title, i_thumbnail, i_cost, a_fname, a_lname FROM item JOIN author ON i_a_id = a_id WHERE a_lname LIKE ? ORDER BY i_title LIMIT 50", args: []any{"%an%"},
		plain: sqldb.CostCounts{Scanned: 1000, Probes: 1000, Matched: 73, Sorted: 73}, indexed: sqldb.CostCounts{Scanned: 1000, Probes: 1000, Matched: 73, Sorted: 73}, rows: 50},
	{sql: "SELECT i_id, i_title, i_thumbnail, i_cost, a_fname, a_lname FROM item JOIN author ON i_a_id = a_id WHERE i_subject = ? ORDER BY i_title LIMIT 50", args: []any{"ARTS"},
		plain: sqldb.CostCounts{Scanned: 1000, Probes: 34, Matched: 34, Sorted: 34}, indexed: sqldb.CostCounts{Probes: 69, Matched: 34, Sorted: 34}, rows: 34},
	{sql: "SELECT i_id, i_title, i_thumbnail, i_cost, a_fname, a_lname FROM item JOIN author ON i_a_id = a_id WHERE i_title LIKE ? ORDER BY i_title LIMIT 50", args: []any{"%the%"},
		plain: sqldb.CostCounts{Scanned: 1000, Probes: 75, Matched: 75, Sorted: 75}, indexed: sqldb.CostCounts{Scanned: 1000, Probes: 75, Matched: 75, Sorted: 75}, rows: 50},
	{sql: "SELECT i_id, i_title, i_thumbnail, i_cost, i_pub_date, a_fname, a_lname FROM item JOIN author ON i_a_id = a_id WHERE i_subject = ? ORDER BY i_pub_date DESC, i_id ASC LIMIT 50", args: []any{"COOKING"},
		plain: sqldb.CostCounts{Scanned: 1000, Probes: 52, Matched: 52, Sorted: 52}, indexed: sqldb.CostCounts{Probes: 105, Matched: 52, Sorted: 52}, rows: 50},
	{sql: "SELECT i_id, i_title, i_cost, a_fname, a_lname, SUM(ol_qty) AS qty FROM order_line JOIN item ON ol_i_id = i_id JOIN author ON i_a_id = a_id WHERE ol_o_id > ? AND i_subject = ? GROUP BY i_id ORDER BY qty DESC LIMIT 50", args: []any{50, "HISTORY"},
		plain: sqldb.CostCounts{Scanned: 621, Probes: 501, Matched: 17, Sorted: 30}, indexed: sqldb.CostCounts{Probes: 986, Matched: 17, Sorted: 30}, rows: 13},
	{sql: "SELECT * FROM item JOIN author ON i_a_id = a_id WHERE i_id = ?", args: []any{42},
		plain: sqldb.CostCounts{Probes: 2, Matched: 1}, indexed: sqldb.CostCounts{Probes: 2, Matched: 1}, rows: 1},
	{sql: "SELECT i_id, i_title, i_cost, i_image FROM item WHERE i_id = ?", args: []any{42},
		plain: sqldb.CostCounts{Probes: 1, Matched: 1}, indexed: sqldb.CostCounts{Probes: 1, Matched: 1}, rows: 1},
	{sql: "UPDATE item SET i_cost = ?, i_image = ?, i_related1 = ?, i_related2 = ?, i_related3 = ?, i_related4 = ?, i_related5 = ? WHERE i_id = ?", args: []any{19.5, "/img/image_42.gif", 43, 44, 45, 46, 47, 42},
		plain: sqldb.CostCounts{Probes: 1, Written: 1}, indexed: sqldb.CostCounts{Probes: 1, Written: 1}, rows: 1},
	{sql: "SELECT i_id, i_title, i_cost FROM item WHERE i_id = ?", args: []any{42},
		plain: sqldb.CostCounts{Probes: 1, Matched: 1}, indexed: sqldb.CostCounts{Probes: 1, Matched: 1}, rows: 1},
}

func normalizeSQL(s string) string { return strings.Join(strings.Fields(s), " ") }

func openTPCW(t testing.TB, mvcc, indexes bool, cfg tpcw.PopulateConfig) *sqldb.DB {
	t.Helper()
	// The default cost model, as the experiments charge it; the timescale
	// turns every charge into a zero-length sleep.
	db := sqldb.OpenChecked(t, sqldb.Options{Timescale: 1e12})
	db.SetMVCC(mvcc)
	if err := tpcw.CreateTables(db); err != nil {
		t.Fatal(err)
	}
	if _, err := tpcw.PopulateShard(db, cfg, nil); err != nil {
		t.Fatal(err)
	}
	if indexes {
		if err := tpcw.CreateExtraIndexes(db); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestTPCWStatementCosts(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		for _, indexes := range []bool{false, true} {
			t.Run(fmt.Sprintf("mvcc=%v/indexes=%v", mvcc, indexes), func(t *testing.T) {
				db := openTPCW(t, mvcc, indexes, tpcw.PopulateConfig{Items: 1000, Customers: 250, Orders: 200})
				for i, st := range tpcwStatements {
					got, rows, err := sqldb.StatementCost(db, st.sql, st.args...)
					if err != nil {
						t.Fatalf("statement %d %q: %v", i, st.sql, err)
					}
					want := st.plain
					if indexes {
						want = st.indexed
					}
					if got != want || rows != st.rows {
						t.Errorf("statement %d %q:\n got %+v rows %d\nwant %+v rows %d", i, st.sql, got, rows, want, st.rows)
					}
				}
				// The planner probes (db.plan.scan/index/rowsread) over the
				// whole pass.
				wantPlan := [3]int64{5, 27, 6309}
				if indexes {
					wantPlan = [3]int64{2, 30, 4365}
				}
				if got := [3]int64{db.PlanScans(), db.PlanIndexLookups(), db.PlanRowsRead()}; got != wantPlan {
					t.Errorf("plan scans/index lookups/rows read = %v, want %v", got, wantPlan)
				}
			})
		}
	}
}

// TestPlanIgnoresTableSize runs the cart page's existence check on the
// empty cart-line table, as the first cart page of a run does, then again
// after 500 inserts. The second run executes the plan cached by the first,
// and it must probe the scl_sc_id index: a plan chosen by pricing the
// table as it was at prepare time would scan all 500 lines.
func TestPlanIgnoresTableSize(t *testing.T) {
	db := openTPCW(t, false, false, tpcw.PopulateConfig{Items: 100, Customers: 20, Orders: 20})
	const exists = "SELECT scl_id, scl_qty FROM shopping_cart_line WHERE scl_sc_id = ? AND scl_i_id = ?"
	if _, rows, err := sqldb.StatementCost(db, exists, 1, 1); err != nil || rows != 0 {
		t.Fatalf("on the empty table: rows %d, %v; want no rows", rows, err)
	}
	c := db.Connect()
	defer c.Close()
	for i := range 500 {
		// Cart i%50+1, item i%100+1: cart 1 holds 10 lines, 5 of them item 1.
		if _, err := c.Exec("INSERT INTO shopping_cart_line (scl_id, scl_sc_id, scl_i_id, scl_qty) VALUES (NULL, ?, ?, 1)", i%50+1, i%100+1); err != nil {
			t.Fatal(err)
		}
	}
	got, rows, err := sqldb.StatementCost(db, exists, 1, 1)
	if want := (sqldb.CostCounts{Probes: 11, Matched: 5}); err != nil || got != want || rows != 5 {
		t.Fatalf("after 500 inserts: %+v rows %d, %v; want %+v rows 5", got, rows, err, want)
	}
}

// TestTPCWStatementCostsCoverHandlers keeps the table honest: every SQL
// literal in handlers.go must appear in it.
func TestTPCWStatementCostsCoverHandlers(t *testing.T) {
	covered := map[string]bool{}
	for _, st := range tpcwStatements {
		covered[normalizeSQL(st.sql)] = true
	}
	for _, s := range handlerSQL(t) {
		if !covered[s] {
			t.Errorf("handlers.go statement has no recorded cost: %q", s)
		}
	}
}

// handlerSQL is every SQL literal in internal/tpcw/handlers.go,
// normalized.
func handlerSQL(t testing.TB) []string { return tpcwSQL(t, "handlers.go", 20) }

// loaderSQL is every SQL literal in internal/tpcw/populate.go,
// normalized.
func loaderSQL(t testing.TB) []string { return tpcwSQL(t, "populate.go", 8) }

// tpcwSQL is every SQL literal in the internal/tpcw file name, normalized;
// fewer than atLeast means the extraction is broken.
func tpcwSQL(t testing.TB, name string, atLeast int) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../tpcw/"+name, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		s, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		s = normalizeSQL(s)
		switch strings.SplitN(s, " ", 2)[0] {
		case "SELECT", "INSERT", "UPDATE", "DELETE":
			found = append(found, s)
		}
		return true
	})
	if len(found) < atLeast {
		t.Fatalf("found only %d SQL literals in %s; the extraction is broken", len(found), name)
	}
	return found
}
