package sqldb

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// Result rows are cut from storage they share — slabs, a recycled top-K,
// one flat copy of an aggregate's groups — and the run state behind them
// is the connection's or a pool's. These tests pin who owns what.

// ownedResults are statements whose results come from each sink: plain,
// ordered with a hidden sort column and more matches than LIMIT (so rows
// displace one another in place), index-ordered, and aggregated with and
// without a top-K.
var ownedResults = []string{
	"SELECT b_id, b_title, b_price FROM book",
	"SELECT b_id, b_title FROM book WHERE b_id > 1",
	"SELECT b_id, b_title FROM book ORDER BY b_price LIMIT 2",
	"SELECT b_title, b_stock FROM book ORDER BY b_stock DESC, b_id LIMIT 3 OFFSET 1",
	"SELECT * FROM book ORDER BY b_title",
	"SELECT b_a_id, COUNT(*) AS n, SUM(b_stock) AS stock, MIN(b_title) AS first FROM book GROUP BY b_a_id",
	"SELECT b_a_id, COUNT(*) AS n, MAX(b_price) AS top FROM book GROUP BY b_a_id ORDER BY top DESC LIMIT 1",
	"SELECT a_name, b_title FROM book JOIN author ON b_a_id = a_id ORDER BY b_title",
}

func copyRows(rows [][]Value) [][]Value {
	out := make([][]Value, len(rows))
	for i, r := range rows {
		out[i] = append([]Value(nil), r...)
	}
	return out
}

// scribble appends to every row of rs and overwrites every cell, checking
// after each row that the rows not yet touched still read as in want.
func scribble(rs *ResultSet, want [][]Value) error {
	for i := range rs.Rows {
		rs.Rows[i] = append(rs.Rows[i], "appended", int64(i))
		for j := range rs.Rows[i] {
			rs.Rows[i][j] = fmt.Sprintf("scribble %d.%d", i, j)
		}
		for k := i + 1; k < len(rs.Rows); k++ {
			if !reflect.DeepEqual(rs.Rows[k], want[k]) {
				return fmt.Errorf("writing row %d changed row %d: %v, want %v", i, k, rs.Rows[k], want[k])
			}
		}
	}
	return nil
}

func TestResultRowsAreTheCallers(t *testing.T) {
	db, c := newTestDB(t)
	// ORDER BY b_title alone walks this index; the rest still sort.
	if err := db.CreateIndex("book", "b_title", true); err != nil {
		t.Fatal(err)
	}
	tables := []string{"SELECT * FROM book", "SELECT * FROM author"}
	var stored [][][]Value
	for _, sql := range tables {
		stored = append(stored, copyRows(mustQuery(t, c, sql).Rows))
	}
	for _, sql := range ownedResults {
		rs := mustQuery(t, c, sql)
		if rs.Len() == 0 {
			t.Fatalf("%q: no rows", sql)
		}
		for i, row := range rs.Rows {
			if len(row) != len(rs.Columns) || cap(row) != len(row) {
				t.Errorf("%q row %d: len %d cap %d, want both %d", sql, i, len(row), cap(row), len(rs.Columns))
			}
		}
		want := copyRows(rs.Rows)
		// A held result outlives later statements on its connection.
		for _, other := range ownedResults[:3] {
			mustQuery(t, c, other)
		}
		if !reflect.DeepEqual(rs.Rows, want) {
			t.Errorf("%q: held result changed under later statements:\n got %v\nwant %v", sql, rs.Rows, want)
		}
		if err := scribble(rs, want); err != nil {
			t.Errorf("%q: %v", sql, err)
		}
		if again := mustQuery(t, c, sql); !reflect.DeepEqual(again.Rows, want) {
			t.Errorf("%q: a later result shows the caller's writes:\n got %v\nwant %v", sql, again.Rows, want)
		}
	}
	for i, sql := range tables {
		if got := mustQuery(t, c, sql).Rows; !reflect.DeepEqual(got, stored[i]) {
			t.Errorf("%q: stored rows changed:\n got %v\nwant %v", sql, got, stored[i])
		}
	}
}

// TestResultRowsAreTheCallersConcurrent is the same ownership under the
// race detector: two connections of one DB share the sink pools, and each
// writes all over the results it is handed.
func TestResultRowsAreTheCallersConcurrent(t *testing.T) {
	db, c0 := newTestDB(t)
	want := make([][][]Value, len(ownedResults))
	for i, sql := range ownedResults {
		want[i] = copyRows(mustQuery(t, c0, sql).Rows)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := db.Connect()
			defer c.Close()
			for round := 0; round < 100; round++ {
				for i, sql := range ownedResults {
					rs, err := c.Query(sql)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(rs.Rows, want[i]) {
						t.Errorf("%q: got %v, want %v", sql, rs.Rows, want[i])
						return
					}
					if err := scribble(rs, want[i]); err != nil {
						t.Errorf("%q: %v", sql, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestParkedConnPinsNothing: once Query has returned, neither the
// connection nor a pooled sink references a row, a view, an argument or
// the result.
func TestParkedConnPinsNothing(t *testing.T) {
	db, c := newTestDB(t)
	for _, sql := range ownedResults {
		mustQuery(t, c, sql)
		if !reflect.ValueOf(&c.ec).Elem().IsZero() || !reflect.ValueOf(&c.scratch).Elem().IsZero() {
			t.Errorf("%q left on the connection: %+v %+v", sql, c.ec, c.scratch)
		}
	}
	if _, err := c.Query("SELECT b_id FROM book WHERE b_id = ? ORDER BY b_title"); err == nil {
		t.Fatal("missing argument accepted")
	}
	if !reflect.ValueOf(&c.ec).Elem().IsZero() || !reflect.ValueOf(&c.scratch).Elem().IsZero() {
		t.Errorf("a failed statement left on the connection: %+v %+v", c.ec, c.scratch)
	}

	// A pooled sink keeps buffers, emptied. (Under -race sync.Pool drops
	// some Puts, and Get hands back a new sink: trivially clean.)
	ord := orderedSinks.Get().(*orderedSink)
	if ord.plan != nil || ord.cost != nil || ord.slab.free != nil ||
		!allZero(ord.top.ents[:cap(ord.top.ents)]) || !allZero(ord.top.cand[:cap(ord.top.cand)]) {
		t.Errorf("pooled ordered sink holds %+v", *ord)
	}
	agg := aggSinks.Get().(*aggSink)
	if agg.plan != nil || agg.cost != nil || agg.n != 0 || len(agg.byValue)+len(agg.byKey) != 0 ||
		!allZero(agg.outs[:cap(agg.outs)]) || !allZero(agg.states[:cap(agg.states)]) ||
		!allZero(agg.top.ents[:cap(agg.top.ents)]) || !allZero(agg.top.cand[:cap(agg.top.cand)]) {
		t.Errorf("pooled aggregate sink holds %+v", *agg)
	}

	// And by weight: a 10 000-row result, dropped by its caller, is not
	// kept alive by the idle connection that produced it.
	db.MustCreateTable(Schema{Table: "big", Columns: []Column{{Name: "id", Type: Int}, {Name: "s", Type: String}}, PrimaryKey: "id"})
	for i := 0; i < 10000; i++ {
		mustExec(t, c, "INSERT INTO big (id, s) VALUES (?, ?)", i, fmt.Sprint("row ", i))
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second empties the pools' victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for _, sql := range []string{"SELECT * FROM big", "SELECT * FROM big ORDER BY s", "SELECT s, COUNT(*) AS n FROM big GROUP BY s"} {
		if rs := mustQuery(t, c, sql); rs.Len() != 10000 {
			t.Fatalf("%q: %d rows", sql, rs.Len())
		}
	}
	// Each result alone is over 400 kB of rows.
	if after := heap(); after > before+64<<10 {
		t.Errorf("idle connection keeps %d bytes alive", after-before)
	}
	runtime.KeepAlive(c)
}

func allZero[T any](s []T) bool {
	for i := range s {
		if !reflect.ValueOf(&s[i]).Elem().IsZero() {
			return false
		}
	}
	return true
}
