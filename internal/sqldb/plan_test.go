package sqldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// planTestDB builds a populated TPC-W-shaped corner (orders, order_line,
// item) with the planner-relevant indexes: hash on orders.o_c_id, ordered
// on order_line.ol_o_id and orders.o_date. The plans do not depend on how
// many rows the tables hold; the rows are there for the tests that run
// the statements.
func planTestDB(t *testing.T, mvcc bool) (*DB, *Conn) {
	t.Helper()
	db := Open(Options{Cost: ZeroCostModel()})
	db.SetMVCC(mvcc)
	db.MustCreateTable(Schema{
		Table: "orders",
		Columns: []Column{
			{Name: "o_id", Type: Int},
			{Name: "o_c_id", Type: Int},
			{Name: "o_date", Type: Int},
			{Name: "o_status", Type: String},
		},
		PrimaryKey: "o_id",
		Indexes:    []string{"o_c_id"},
	})
	db.MustCreateTable(Schema{
		Table: "order_line",
		Columns: []Column{
			{Name: "ol_id", Type: Int},
			{Name: "ol_o_id", Type: Int},
			{Name: "ol_i_id", Type: Int},
			{Name: "ol_qty", Type: Int},
		},
		PrimaryKey: "ol_id",
	})
	db.MustCreateTable(Schema{
		Table: "item",
		Columns: []Column{
			{Name: "i_id", Type: Int},
			{Name: "i_title", Type: String},
		},
		PrimaryKey: "i_id",
	})
	for _, ix := range [][2]string{{"orders", "o_date"}, {"order_line", "ol_o_id"}} {
		if err := db.CreateIndex(ix[0], ix[1], true); err != nil {
			t.Fatal(err)
		}
	}
	c := db.Connect()
	t.Cleanup(c.Close)
	for i := 1; i <= 50; i++ {
		mustExec(t, c, "INSERT INTO item (i_id, i_title) VALUES (?, ?)", i, fmt.Sprintf("title-%d", i))
	}
	for o := 1; o <= 100; o++ {
		mustExec(t, c, "INSERT INTO orders (o_id, o_c_id, o_date, o_status) VALUES (?, ?, ?, ?)",
			o, 1+o%20, 1000+o, "SHIPPED")
		for l := 0; l < 3; l++ {
			mustExec(t, c, "INSERT INTO order_line (ol_o_id, ol_i_id, ol_qty) VALUES (?, ?, ?)",
				o, 1+(o+l)%50, 1+l)
		}
	}
	return db, c
}

func explain(t *testing.T, c *Conn, sql string) []string {
	t.Helper()
	rs, err := c.Query("EXPLAIN " + sql)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", sql, err)
	}
	out := make([]string, len(rs.Rows))
	for i, row := range rs.Rows {
		out[i], _ = row[0].(string)
	}
	return out
}

// TestExplainGoldens pins the planner's access-path choices for the
// query shapes the TPC-W pages exercise, under both storage engines
// (plans are engine-independent; the goldens prove it).
func TestExplainGoldens(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		t.Run(fmt.Sprintf("mvcc=%v", mvcc), func(t *testing.T) {
			_, c := planTestDB(t, mvcc)
			cases := []struct {
				name string
				sql  string
				want []string
			}{
				{
					name: "point lookup via primary key",
					sql:  "SELECT o_status FROM orders WHERE o_id = ?",
					want: []string{"PKLookup(orders.o_id = ?)", "Filter(o_id = ?)"},
				},
				{
					name: "point lookup via hash index",
					sql:  "SELECT o_id FROM orders WHERE o_c_id = ?",
					want: []string{"IndexLookup(orders.o_c_id = ?)", "Filter(o_c_id = ?)"},
				},
				{
					name: "range scan via ordered index (best-sellers window)",
					sql:  "SELECT ol_i_id, ol_qty FROM order_line WHERE ol_o_id > ?",
					want: []string{"IndexRange(order_line.ol_o_id > ?)", "Filter(ol_o_id > ?)"},
				},
				{
					name: "range with a literal bound and a residual filter",
					sql:  "SELECT ol_id FROM order_line WHERE ol_qty = 2 AND ol_o_id > 95",
					want: []string{
						"IndexRange(order_line.ol_o_id > 95)",
						"Filter(ol_qty = 2 and ol_o_id > 95)",
					},
				},
				{
					name: "ORDER BY + LIMIT over an ordered-indexed column scans and sorts",
					sql:  "SELECT o_id, o_date FROM orders ORDER BY o_date DESC LIMIT 1",
					want: []string{"Scan(orders)", "Sort(o_date desc)", "Limit(1)"},
				},
				{
					name: "non-indexed predicate falls back to a scan",
					sql:  "SELECT o_id FROM orders WHERE o_status = ?",
					want: []string{"Scan(orders)", "Filter(o_status = ?)"},
				},
				{
					name: "primary-key join (order display page)",
					sql: "SELECT ol_qty, i_title FROM order_line " +
						"JOIN item ON ol_i_id = i_id WHERE ol_o_id = ?",
					want: []string{
						"IndexLookup(order_line.ol_o_id = ?)",
						"IndexJoin(item.i_id = ol_i_id)",
						"Filter(ol_o_id = ?)",
					},
				},
				{
					name: "aggregation over an index range (best sellers)",
					sql: "SELECT ol_i_id, SUM(ol_qty) AS qty FROM order_line " +
						"WHERE ol_o_id > ? GROUP BY ol_i_id ORDER BY qty DESC LIMIT 5",
					want: []string{
						"IndexRange(order_line.ol_o_id > ?)",
						"Filter(ol_o_id > ?)",
						"Aggregate(group by ol_i_id)",
						"Sort(qty desc)",
						"Limit(5)",
					},
				},
			}
			for _, tc := range cases {
				if got := explain(t, c, tc.sql); !reflect.DeepEqual(got, tc.want) {
					t.Errorf("%s:\nEXPLAIN %s\n got: %q\nwant: %q", tc.name, tc.sql, got, tc.want)
				}
			}
		})
	}
}

// TestCreateIndexReplansCachedStatements pins the satellite fix: a
// cached statement planned as a full scan is replanned — not served
// stale — after CreateIndex changes index availability.
func TestCreateIndexReplansCachedStatements(t *testing.T) {
	db := Open(Options{Cost: ZeroCostModel()})
	db.MustCreateTable(Schema{
		Table: "t",
		Columns: []Column{
			{Name: "id", Type: Int},
			{Name: "grp", Type: Int},
		},
		PrimaryKey: "id",
	})
	c := db.Connect()
	defer c.Close()
	for i := 1; i <= 500; i++ {
		mustExec(t, c, "INSERT INTO t (id, grp) VALUES (?, ?)", i, i%7)
	}

	const q = "SELECT id FROM t WHERE grp = ?"
	for i := 0; i < 3; i++ {
		if _, err := c.Query(q, 3); err != nil {
			t.Fatal(err)
		}
	}
	scans, lookups := db.PlanScans(), db.PlanIndexLookups()
	if scans < 3 {
		t.Fatalf("PlanScans = %d before the index exists, want >= 3", scans)
	}
	if got := explain(t, c, q); got[0] != "Scan(t)" {
		t.Fatalf("pre-index plan = %q, want scan", got)
	}

	epoch := db.idxEpoch.Load()
	if err := db.CreateIndex("t", "grp", false); err != nil {
		t.Fatal(err)
	}
	if db.idxEpoch.Load() != epoch+1 {
		t.Fatalf("index epoch = %d, want %d", db.idxEpoch.Load(), epoch+1)
	}

	// The same SQL text must now execute through the index: the cached
	// plan was invalidated by the epoch bump, not left resident.
	rs, err := c.Query(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() == 0 {
		t.Fatal("replanned query returned no rows")
	}
	if got := db.PlanScans(); got != scans {
		t.Fatalf("PlanScans moved %d -> %d after CreateIndex; stale scan plan executed", scans, got)
	}
	if got := db.PlanIndexLookups(); got <= lookups {
		t.Fatalf("PlanIndexLookups = %d, want > %d (replan not observed)", got, lookups)
	}
	if got := explain(t, c, q); got[0] != "IndexLookup(t.grp = ?)" {
		t.Fatalf("post-index plan = %q, want index lookup", got)
	}
}

// TestOrderedIndexMatchesScanProperty is the ordered-index twin of
// TestIndexMatchesScanProperty: after an arbitrary interleaving of
// inserts, updates, and deletes on an ordered-indexed column, range
// queries and ORDER BY+LIMIT walks return exactly what the row model
// predicts — stale entries (a row's old key positions) never surface
// and never duplicate a row.
func TestOrderedIndexMatchesScanProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := Open(Options{Cost: ZeroCostModel()})
		db.SetMVCC(seed%2 == 0)
		db.MustCreateTable(Schema{
			Table: "t",
			Columns: []Column{
				{Name: "id", Type: Int},
				{Name: "key", Type: Int},
			},
			PrimaryKey: "id",
		})
		if err := db.CreateIndex("t", "key", true); err != nil {
			return false
		}
		c := db.Connect()
		defer c.Close()
		live := map[int64]int64{} // id -> key
		nextID := int64(1)
		for op := 0; op < 300; op++ {
			switch r.Intn(4) {
			case 0, 1:
				k := int64(r.Intn(40))
				if _, err := c.Exec("INSERT INTO t (id, key) VALUES (?, ?)", nextID, k); err != nil {
					return false
				}
				live[nextID] = k
				nextID++
			case 2:
				if len(live) == 0 {
					continue
				}
				id := randomKey(r, live)
				k := int64(r.Intn(40))
				if _, err := c.Exec("UPDATE t SET key = ? WHERE id = ?", k, id); err != nil {
					return false
				}
				live[id] = k
			case 3:
				if len(live) == 0 {
					continue
				}
				id := randomKey(r, live)
				if _, err := c.Exec("DELETE FROM t WHERE id = ?", id); err != nil {
					return false
				}
				delete(live, id)
			}
		}

		// Range query vs the row model.
		lo := int64(r.Intn(40))
		rs, err := c.Query("SELECT id FROM t WHERE key > ?", lo)
		if err != nil {
			return false
		}
		var want []int64
		for id, k := range live {
			if k > lo {
				want = append(want, id)
			}
		}
		if rs.Len() != len(want) {
			return false
		}
		got := map[int64]bool{}
		for i := 0; i < rs.Len(); i++ {
			id := rs.Int(i, "id")
			if got[id] { // duplicate row: stale entry surfaced
				return false
			}
			got[id] = true
			if k, ok := live[id]; !ok || k <= lo {
				return false
			}
		}

		// ORDER BY + LIMIT vs a full in-memory sort of the model.
		limit := 1 + r.Intn(10)
		rs, err = c.Query(fmt.Sprintf("SELECT id, key FROM t ORDER BY key ASC LIMIT %d", limit))
		if err != nil {
			return false
		}
		type pair struct{ id, key int64 }
		var all []pair
		for id, k := range live {
			all = append(all, pair{id, k})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].key != all[j].key {
				return all[i].key < all[j].key
			}
			return all[i].id < all[j].id
		})
		wantN := limit
		if wantN > len(all) {
			wantN = len(all)
		}
		if rs.Len() != wantN {
			return false
		}
		for i := 0; i < rs.Len(); i++ {
			if rs.Int(i, "key") != all[i].key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
