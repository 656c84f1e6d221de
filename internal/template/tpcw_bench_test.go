package template_test

import (
	"testing"

	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/tpcw"
)

// The render rows of the per-layer ledger: each TPC-W page's template
// over the data its handler really returns — result sets from a
// populated database of browse_scan's size, not hand-built maps. The
// statements behind them are internal/sqldb's BenchmarkSelect.

// renderPages are the pages the browsing mix renders most, and the query
// that gives each its fullest listing.
var renderPages = []struct {
	name, page string
	query      map[string]string
}{
	{"home", tpcw.PageHome, map[string]string{"c_id": "7"}},
	{"best_sellers", tpcw.PageBestSellers, map[string]string{"subject": "ARTS"}},
	{"new_products", tpcw.PageNewProducts, map[string]string{"subject": "ARTS"}},
	{"product_detail", tpcw.PageProductDetail, map[string]string{"i_id": "42"}},
	{"shopping_cart", tpcw.PageShoppingCart, map[string]string{"i_id": "5", "qty": "2"}},
}

// handlerResults runs each of renderPages' handlers once against a fresh
// bookstore and returns the app with the (template, data) pairs.
func handlerResults(tb testing.TB) (*tpcw.App, map[string]*server.Result) {
	tb.Helper()
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	if err := tpcw.CreateTables(db); err != nil {
		tb.Fatal(err)
	}
	counts, err := tpcw.Populate(db, tpcw.PopulateConfig{Items: 10000, Customers: 2500, Orders: 2000})
	if err != nil {
		tb.Fatal(err)
	}
	app := tpcw.NewApp(counts, nil)
	conn := db.Connect()
	defer conn.Close()
	results := map[string]*server.Result{}
	for _, p := range renderPages {
		h, _ := app.Handler(p.page)
		res, err := h(&server.Request{Path: p.page, Query: p.query, DB: conn})
		if err != nil || !res.Deferred() {
			tb.Fatalf("%s: result %+v, err %v", p.page, res, err)
		}
		results[p.name] = res
	}
	return app, results
}

func BenchmarkRender(b *testing.B) {
	app, results := handlerResults(b)
	set := app.Templates()
	var buf []byte
	for _, p := range renderPages {
		res := results[p.name]
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var err error
				if buf, err = set.RenderAppend(buf[:0], res.Template, res.Data); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

// TestRenderAllocCeilings pins what a render into a warm buffer may
// allocate: a small constant that does not depend on how many rows the
// page lists. A scope map, a forloop map, a boxed string or a formatted
// cell per row would each show up here as a multiple of the row count.
func TestRenderAllocCeilings(t *testing.T) {
	app, results := handlerResults(t)
	set := app.Templates()
	buf := make([]byte, 0, 64<<10)
	allocs := func(res *server.Result, data map[string]any) float64 {
		t.Helper()
		render := func() {
			var err error
			if buf, err = set.RenderAppend(buf[:0], res.Template, data); err != nil {
				t.Fatal(err)
			}
		}
		render() // parse the templates, warm the pooled state
		return testing.AllocsPerRun(100, render)
	}

	best := results["best_sellers"]
	rows := best.Data["results"].(*sqldb.ResultSet)
	if rows.Len() != 50 {
		t.Fatalf("best_sellers listed %d rows, want the full 50", rows.Len())
	}
	few := &sqldb.ResultSet{Columns: rows.Columns, Rows: rows.Rows[:5]}
	all := allocs(best, best.Data)
	five := allocs(best, map[string]any{"subject": best.Data["subject"], "results": few})
	if all != five {
		t.Errorf("best_sellers.html: %v allocations over 50 rows, %v over 5: something allocates per row", all, five)
	}
	if all > 1 {
		t.Errorf("best_sellers.html allocates %v times per render, ceiling 1", all)
	}

	home := results["home"]
	if n := allocs(home, home.Data); n > 1 {
		t.Errorf("home.html allocates %v times per render, ceiling 1", n)
	}
}
