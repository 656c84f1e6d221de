package sqldb_test

import (
	"testing"

	"stagedweb/internal/sqldb"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/webtest"
)

// The statements of the TPC-W pages that dominate sqldb time, verbatim
// from internal/tpcw/handlers.go, with arguments that hit, and the
// arguments the benchmark's browse_scan workload sends where they differ.
var selectBenchmarks = []struct {
	name, sql string
	args      []any
	// parallel adds an exec-parallel row: the same execution from
	// GOMAXPROCS goroutines at once. A primary-key probe costs a few
	// nanoseconds on one core; whether it writes memory the other cores
	// read shows only when they all run it.
	parallel bool
	// miss marks arguments that match no row.
	miss bool
}{
	{name: "point", parallel: true, args: []any{4242},
		sql: "SELECT i_id, i_title, i_thumbnail FROM item WHERE i_id = ?"},
	{name: "pkjoin", parallel: true, args: []any{4242},
		sql: "SELECT * FROM item JOIN author ON i_a_id = a_id WHERE i_id = ?"},
	{name: "search_title", args: []any{"%the%"},
		sql: `SELECT i_id, i_title, i_thumbnail, i_cost, a_fname, a_lname FROM item
		 JOIN author ON i_a_id = a_id WHERE i_title LIKE ? ORDER BY i_title LIMIT 50`},
	// One of the words browse_scan sends, which the title trigram
	// postings narrow to the few hundred titles holding all four of its
	// trigrams; and a pattern with no letter trigram, which keeps the
	// plain loop over every title.
	{name: "search_title_rare", args: []any{"%SECRET%"},
		sql: `SELECT i_id, i_title, i_thumbnail, i_cost, a_fname, a_lname FROM item
		 JOIN author ON i_a_id = a_id WHERE i_title LIKE ? ORDER BY i_title LIMIT 50`},
	{name: "search_title_nogram", args: []any{"%#12%"},
		sql: `SELECT i_id, i_title, i_thumbnail, i_cost, a_fname, a_lname FROM item
		 JOIN author ON i_a_id = a_id WHERE i_title LIKE ? ORDER BY i_title LIMIT 50`},
	{name: "search_subject", args: []any{"ARTS"},
		sql: `SELECT i_id, i_title, i_thumbnail, i_cost, a_fname, a_lname FROM item
		 JOIN author ON i_a_id = a_id WHERE i_subject = ? ORDER BY i_title LIMIT 50`},
	{name: "search_author", args: []any{"%an%"},
		sql: `SELECT i_id, i_title, i_thumbnail, i_cost, a_fname, a_lname FROM item
		 JOIN author ON i_a_id = a_id WHERE a_lname LIKE ? ORDER BY i_title LIMIT 50`},
	// browse_scan's search words occur in no generated last name: every
	// author search it sends probes the author of each of the 10 000
	// items and returns nothing.
	{name: "search_author_miss", args: []any{"%THE%"}, miss: true,
		sql: `SELECT i_id, i_title, i_thumbnail, i_cost, a_fname, a_lname FROM item
		 JOIN author ON i_a_id = a_id WHERE a_lname LIKE ? ORDER BY i_title LIMIT 50`},
	{name: "new_products", args: []any{"COOKING"},
		sql: `SELECT i_id, i_title, i_thumbnail, i_cost, i_pub_date, a_fname, a_lname FROM item
		 JOIN author ON i_a_id = a_id WHERE i_subject = ? ORDER BY i_pub_date DESC, i_id ASC LIMIT 50`},
	{name: "best_sellers", args: []any{0, "HISTORY"},
		sql: `SELECT i_id, i_title, i_cost, a_fname, a_lname, SUM(ol_qty) AS qty
		 FROM order_line
		 JOIN item ON ol_i_id = i_id
		 JOIN author ON i_a_id = a_id
		 WHERE ol_o_id > ? AND i_subject = ?
		 GROUP BY i_id ORDER BY qty DESC LIMIT 50`},
}

// BenchmarkSelect is the per-statement layer ledger of the SELECT path
// over the benchmark's browse_scan population (10 000 items, lock
// engine, the paper's schema): for each statement, what a
// statement-cache hit costs (prepare-hit), what executing the cached
// plan costs off a connection (exec), and what the whole of Conn.Query
// costs on a reused connection (query), in ns and allocations. query is
// less than the sum of the other two by what the connection's scratch
// saves: exec allocates its context, run and sink, a connection does not.
// The primary-key statements also get an exec-parallel row (ns per
// execution with every core executing).
func BenchmarkSelect(b *testing.B) {
	db := openTPCW(b, false, false, tpcw.PopulateConfig{Items: 10000, Customers: 2500, Orders: 2000})
	for _, bm := range selectBenchmarks {
		p, err := sqldb.Prepare(db, bm.sql)
		if err != nil {
			b.Fatal(err)
		}
		if rs, err := p.Exec(bm.args...); err != nil || (rs.Len() == 0) != bm.miss {
			b.Fatalf("%s: %d rows, err %v", bm.name, rs.Len(), err)
		}
		b.Run(bm.name+"/prepare-hit", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := sqldb.Prepare(db, bm.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bm.name+"/exec", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := p.Exec(bm.args...); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bm.name+"/query", func(b *testing.B) {
			c := db.Connect()
			defer c.Close()
			b.ReportAllocs()
			for b.Loop() {
				if _, err := c.Query(bm.sql, bm.args...); err != nil {
					b.Fatal(err)
				}
			}
		})
		if !bm.parallel {
			continue
		}
		b.Run(bm.name+"/exec-parallel", func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := p.Exec(bm.args...); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// queryAllocs is the allocation count of one Conn.Query call, result
// included.
func queryAllocs(t *testing.T, db *sqldb.DB, sql string, args ...any) float64 {
	t.Helper()
	c := db.Connect()
	defer c.Close()
	if rs, err := c.Query(sql, args...); err != nil || rs.Len() == 0 {
		t.Fatalf("%q: %d rows, err %v", sql, rs.Len(), err)
	}
	return testing.AllocsPerRun(50, func() {
		if _, err := c.Query(sql, args...); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSelectAllocCeilings pins what the hot statements may allocate, so
// that a per-execution slice, closure or map creeping back into the
// cached-statement path fails a test instead of a benchmark. The counts
// are whole Conn.Query calls on a reused connection, result included;
// before the streaming executor they were 23, 30 and (search, 10 000
// items) 2 537, and before rows were recycled 7, 7 and 206.
func TestSelectAllocCeilings(t *testing.T) {
	small := openTPCW(t, false, false, tpcw.PopulateConfig{Items: 1000, Customers: 250, Orders: 200})
	large := openTPCW(t, false, false, tpcw.PopulateConfig{Items: 10000, Customers: 250, Orders: 200})
	byName := map[string]int{}
	for i, bm := range selectBenchmarks {
		byName[bm.name] = i
	}

	// The key boxed as an int64, the result, its one row: three, whatever
	// the width of the join. Context, run and sink are the connection's.
	for _, name := range []string{"point", "pkjoin"} {
		bm := selectBenchmarks[byName[name]]
		if n := queryAllocs(t, small, bm.sql, 742); n > 4 {
			t.Errorf("%s: %v allocations per query, ceiling 4", name, n)
		}
	}

	if webtest.RaceEnabled {
		return // the sinks below are pooled
	}

	// ORDER BY ... LIMIT 50 over a scan allocates for the 50 rows it
	// returns — six slabs, each twice the last — the result and its
	// header, and nothing per row scanned, matched or displaced from the
	// top 50: ten times the table is not one allocation more.
	for _, name := range []string{"search_title", "new_products"} {
		bm := selectBenchmarks[byName[name]]
		few := queryAllocs(t, small, bm.sql, bm.args...)
		many := queryAllocs(t, large, bm.sql, bm.args...)
		t.Logf("%s: %v allocations over 1 000 items, %v over 10 000", name, few, many)
		if few > 12 || many != few {
			t.Errorf("%s: %v allocations per query over 1 000 items, %v over 10 000; ceiling 12, and equal", name, few, many)
		}
	}

	// Groups, their states and their rows are a pooled sink's; what is
	// allocated is the result: rows of the top 50 in one piece, header,
	// and the boxed SUM of each group that has one above 255.
	bm := selectBenchmarks[byName["best_sellers"]]
	if n := queryAllocs(t, small, bm.sql, bm.args...); n > 40 {
		t.Errorf("best_sellers: %v allocations per query, ceiling 40", n)
	}
}
