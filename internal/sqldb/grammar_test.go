package sqldb_test

import (
	"strings"
	"testing"

	"stagedweb/internal/sqldb"
	"stagedweb/internal/tpcw"
)

// The grammar is the SQL internal/tpcw speaks: the statements of its
// pages (handlers.go) and of its loader (populate.go), and EXPLAIN. These
// tests hold it there from both sides.

// explainOnly are the keywords no page or loader statement uses, each
// with the reason it stays.
var explainOnly = map[string]string{
	"EXPLAIN": "the planner's tests read plans through it (plan_test.go, and equiv_test.go's arrival order), and the README documents it",
}

// TestPagesUseEveryKeywordOperatorAndType fails if the lexer's keyword
// table, the comparison table or the column types hold an entry that no
// handler or loader statement uses. SUM, the one aggregate, is a keyword
// like any other: an aggregate added back needs an entry in the keyword
// table, and fails here until a page uses it.
func TestPagesUseEveryKeywordOperatorAndType(t *testing.T) {
	used := map[string]bool{}
	for _, sql := range append(handlerSQL(t), loaderSQL(t)...) {
		words, err := sqldb.Words(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		for _, w := range words {
			used[w] = true
		}
	}
	for _, s := range tpcw.Schemas() {
		for _, c := range s.Columns {
			used[c.Type.String()] = true // the loader inserts every column
		}
	}
	keywords, comparisons, types := sqldb.Grammar()
	if len(keywords) == 0 || len(comparisons) == 0 || len(types) == 0 {
		t.Fatalf("grammar tables read %d keywords, %d comparisons, %d column types; the export is broken",
			len(keywords), len(comparisons), len(types))
	}
	for kw, why := range explainOnly {
		if used[kw] {
			t.Errorf("explainOnly[%s] is used by a statement; drop the entry", kw)
		}
		used[kw] = why != ""
	}
	for _, table := range []struct {
		name    string
		entries []string
	}{{"keyword", keywords}, {"comparison", comparisons}, {"column type", types}} {
		for _, e := range table.entries {
			if !used[e] {
				t.Errorf("%s %s is in the grammar, but no handler or loader statement uses it", table.name, e)
			}
		}
	}
}

// TestPagesUseEveryAccessPathAndIndex fails if a secondary index of the
// TPC-W schema, with or without tpcw.CreateExtraIndexes, or an access
// path the planner has is chosen by no page statement: each costs upkeep
// on every write, or code, that no page reads.
func TestPagesUseEveryAccessPathAndIndex(t *testing.T) {
	paths := map[string]bool{"Scan": false, "PKLookup": false, "IndexLookup": false, "IndexRange": false, "IndexJoin": false}
	for _, indexes := range []bool{false, true} {
		db := openTPCW(t, false, indexes, tpcw.PopulateConfig{Items: 50, Customers: 20, Orders: 20})
		c := db.Connect()
		chosen := map[string]bool{} // table.column of the indexes the plans read
		for _, st := range tpcwStatements {
			if !strings.HasPrefix(st.sql, "SELECT") {
				continue
			}
			rs, err := c.Query("EXPLAIN " + st.sql)
			if err != nil {
				t.Fatalf("EXPLAIN %s: %v", st.sql, err)
			}
			for _, row := range rs.Rows {
				line := row[0].(string)
				kind, rest, ok := strings.Cut(line, "(")
				if _, known := paths[kind]; !ok || !known {
					continue // Filter, Sort, Aggregate, Limit
				}
				paths[kind] = true
				if kind == "IndexLookup" || kind == "IndexRange" {
					chosen[strings.Fields(rest)[0]] = true
				}
			}
		}
		c.Close()
		for _, s := range tpcw.Schemas() {
			cols, err := sqldb.SecondaryIndexes(db, s.Table)
			if err != nil {
				t.Fatal(err)
			}
			for _, col := range cols {
				if !chosen[s.Table+"."+col] {
					t.Errorf("indexes=%v: %s.%s is indexed, but no page statement reads the index", indexes, s.Table, col)
				}
			}
		}
	}
	for kind, used := range paths {
		if !used {
			t.Errorf("no page statement's plan uses %s", kind)
		}
	}
}

// droppedForms is one statement per form of SQL the grammar does not
// have, each with the part of its prepare error that names the form.
// FuzzParse seeds from it too.
var droppedForms = []struct {
	form, sql, err string
}{
	{"OR", "SELECT i_id FROM item WHERE i_id = 1 OR i_id = 2", `"OR"`},
	{"NOT", "SELECT i_id FROM item WHERE NOT i_id = 1", "after NOT"},
	{"parentheses", "SELECT i_id FROM item WHERE (i_id = 1)", `"("`},
	{"IN", "SELECT i_id FROM item WHERE i_id IN (1, 2)", `"IN"`},
	{"NOT IN", "SELECT i_id FROM item WHERE i_id NOT IN (1, 2)", `"NOT"`},
	{"IS NULL", "SELECT i_id FROM item WHERE i_desc IS NULL", `"IS"`},
	{"IS NOT NULL", "SELECT i_id FROM item WHERE i_desc IS NOT NULL", `"IS"`},
	{"NOT LIKE", "SELECT i_id FROM item WHERE i_title NOT LIKE ?", `"NOT"`},
	{"!=", "SELECT i_id FROM item WHERE i_id != ?", `"!="`},
	{"<>", "SELECT i_id FROM item WHERE i_id <> ?", `"<>"`},
	{"<", "SELECT i_id FROM item WHERE i_id < ?", `"<"`},
	{"<=", "SELECT i_id FROM item WHERE i_id <= ?", `"<="`},
	{">=", "SELECT i_id FROM item WHERE i_id >= ?", `">="`},
	{"column on the right of a comparison", "SELECT i_id FROM item WHERE i_cost = i_srp", `column "i_srp"`},
	{"column as a SET value", "UPDATE item SET i_cost = i_srp WHERE i_id = ?", `column "i_srp"`},
	{"TRUE", "SELECT i_id FROM item WHERE i_id = TRUE", `column "TRUE"`},
	{"FALSE", "UPDATE item SET i_stock = FALSE WHERE i_id = ?", `column "FALSE"`},
	{"COUNT", "SELECT COUNT(*) AS n FROM item", "unsupported function COUNT"},
	{"AVG", "SELECT i_subject, AVG(i_cost) AS a FROM item GROUP BY i_subject", "unsupported function AVG"},
	{"MIN", "SELECT i_subject, MIN(i_cost) AS a FROM item GROUP BY i_subject", "unsupported function MIN"},
	{"MAX", "SELECT i_subject, MAX(i_cost) AS a FROM item GROUP BY i_subject", "unsupported function MAX"},
	{"SUM without GROUP BY", "SELECT SUM(ol_qty) AS q FROM order_line", "needs a GROUP BY"},
	{"SUM without a name", "SELECT ol_i_id, SUM(ol_qty) FROM order_line GROUP BY ol_i_id", "expected AS"},
	{"multi-column GROUP BY", "SELECT ol_i_id, SUM(ol_qty) AS q FROM order_line GROUP BY ol_i_id, ol_o_id", "GROUP BY takes one column"},
	{"GROUP BY a FLOAT column", "SELECT i_cost, SUM(i_stock) AS n FROM item GROUP BY i_cost", "FLOAT column does not group"},
	{"GROUP BY a TIME column", "SELECT i_pub_date, SUM(i_stock) AS n FROM item GROUP BY i_pub_date", "TIME column does not group"},
	{"OFFSET", "SELECT i_id FROM item LIMIT 5 OFFSET 5", `"OFFSET"`},
	{"INNER", "SELECT i_id FROM item INNER JOIN author ON i_a_id = a_id", `"INNER"`},
	{"table alias", "SELECT i_id FROM item i JOIN author ON i_a_id = a_id", "take no alias"},
	{"AS table alias", "SELECT i_id FROM item AS i", "take no alias"},
	{"a table joined to itself", "SELECT i_id FROM item JOIN item ON i_id = i_related1", "appears twice"},
	{"JOIN on a column that is not the joined table's primary key", "SELECT a_id FROM author JOIN item ON a_id = i_a_id", "item.i_a_id"},
	{"t.*", "SELECT author.* FROM item JOIN author ON i_a_id = a_id", "'.'"},
	{"qualified column", "SELECT item.i_id FROM item", "'.'"},
	{"column alias", "SELECT i_id AS id FROM item", "column aliases"},
	{"ORDER BY a column the result does not carry", "SELECT i_id FROM item ORDER BY i_title", "not in the result"},
}

// TestDroppedFormsFailToPrepare holds every form the grammar dropped to
// an error when its statement is prepared, one that names the form.
// A bool is not a value either, and BOOL not a column type.
func TestDroppedFormsFailToPrepare(t *testing.T) {
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	if err := tpcw.CreateTables(db); err != nil {
		t.Fatal(err)
	}
	for _, d := range droppedForms {
		if _, err := sqldb.Prepare(db, d.sql); err == nil || !strings.Contains(err.Error(), d.err) {
			t.Errorf("%s: prepare(%q) = %v, want an error naming it (%s)", d.form, d.sql, err, d.err)
		}
	}

	c := db.Connect()
	defer c.Close()
	if _, err := c.Query("SELECT i_id FROM item WHERE i_id = ?", true); err == nil || !strings.Contains(err.Error(), "bool") {
		t.Errorf("a bool argument: %v, want an unsupported-type error", err)
	}
	err := db.CreateTable(sqldb.Schema{Table: "flags", Columns: []sqldb.Column{{Name: "f", Type: sqldb.Time + 1}}})
	if err == nil || !strings.Contains(err.Error(), "unknown type") {
		t.Errorf("a column past TIME: %v, want an unknown-type error", err)
	}
}
