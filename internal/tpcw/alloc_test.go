package tpcw

import (
	"testing"

	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/webtest"
)

// TestPageAllocCeilings pins what a whole page — handler, its statements
// on a reused connection, render into a warm buffer — may allocate on
// the browse_images population, so that a map per row, a Sprintf or a
// per-statement context creeping back in fails a test, not a benchmark.
// What is counted: the page's data map and Result, each statement's
// arguments on their way through DBConn's ...any, its result and rows.
func TestPageAllocCeilings(t *testing.T) {
	if webtest.RaceEnabled {
		t.Skip("sinks and render state are pooled")
	}
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	if err := CreateTables(db); err != nil {
		t.Fatal(err)
	}
	counts, err := Populate(db, PopulateConfig{Items: 1000, Customers: 250, Orders: 200})
	if err != nil {
		t.Fatal(err)
	}
	app := NewApp(counts, nil)
	conn := db.Connect()
	defer conn.Close()
	buf := make([]byte, 0, 64<<10)

	for _, p := range []struct {
		page    string
		query   map[string]string
		ceiling float64
	}{
		// Five promotions at four allocations each (the argument list of a
		// call through DBConn, the id boxed in it unless it is under 256,
		// the result, its row), gathered into one result; home adds the
		// greeting lookup. They
		// were 60, 60, 12, 47 and 41 with a map per promotion, a row per
		// top-K displacement and a context, run and sink per statement.
		{PageHome, map[string]string{"c_id": "7"}, 32},
		{PageSearchRequest, map[string]string{}, 27},
		{PageProductDetail, map[string]string{"i_id": "42"}, 8},
		{PageNewProducts, map[string]string{"subject": "ARTS"}, 16},
		{PageBestSellers, map[string]string{"subject": "ARTS"}, 12},
	} {
		h, _ := app.Handler(p.page)
		req := &server.Request{Path: p.page, Query: p.query, DB: conn}
		serve := func() {
			res, err := h(req)
			if err != nil || !res.Deferred() {
				t.Fatalf("%s: result %+v, err %v", p.page, res, err)
			}
			if buf, err = app.Templates().RenderAppend(buf[:0], res.Template, res.Data); err != nil {
				t.Fatal(err)
			}
		}
		serve() // parse the templates, fill the statement cache and the pools
		n := testing.AllocsPerRun(50, serve)
		t.Logf("%s: %v allocations", p.page, n)
		if n > p.ceiling {
			t.Errorf("%s: %v allocations per page, ceiling %v", p.page, n, p.ceiling)
		}
	}
}
