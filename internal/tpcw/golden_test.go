package tpcw

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strconv"
	"testing"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/sqldb"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_pages.json from this build's output")

const goldenPagesFile = "testdata/golden_pages.json"

// goldenStep is one request of the fixed script TestGoldenPages replays.
type goldenStep struct {
	name, page string
	query      map[string]string
}

// TestGoldenPages renders all 14 pages, plus the {% empty %} cart and
// the no-order order_display, from a seeded database under a frozen
// clock and requires the bodies recorded in testdata — so a renderer
// change that moves one byte fails here, in tier-1, and not only in the
// benchmark module's golden replay.
func TestGoldenPages(t *testing.T) {
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	if err := CreateTables(db); err != nil {
		t.Fatal(err)
	}
	counts, err := Populate(db, smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	app := NewApp(counts, clock.NewManual(time.Date(2009, 6, 29, 12, 0, 0, 0, time.UTC)))
	conn := db.Connect()
	defer conn.Close()

	// A customer without orders, for order_display's else-branch.
	var noOrders int
	for c := 1; c <= counts.Customers && noOrders == 0; c++ {
		rs, err := conn.Query("SELECT o_id FROM orders WHERE o_c_id = ?", c)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Len() == 0 {
			noOrders = c
		}
	}
	if noOrders == 0 {
		t.Fatal("every customer has an order; grow smallCfg.Customers")
	}

	// Cart 1 is created by the first step; its id is deterministic
	// because the database is fresh.
	const cart = "1"
	steps := []goldenStep{
		{"home", PageHome, nil},
		{"home_customer", PageHome, map[string]string{"c_id": "7"}},
		{"shopping_cart_empty", PageShoppingCart, nil},
		{"shopping_cart_add", PageShoppingCart, map[string]string{"sc_id": cart, "i_id": "5", "qty": "2"}},
		{"shopping_cart_two_lines", PageShoppingCart, map[string]string{"sc_id": cart, "i_id": "17", "qty": "1"}},
		{"customer_registration", PageCustomerReg, map[string]string{"sc_id": cart}},
		{"buy_request", PageBuyRequest, map[string]string{"sc_id": cart, "uname": Uname(3)}},
		{"buy_confirm", PageBuyConfirm, map[string]string{"sc_id": cart, "c_id": "3"}},
		{"order_inquiry", PageOrderInquiry, nil},
		{"order_display", PageOrderDisplay, map[string]string{"uname": Uname(3)}},
		{"order_display_none", PageOrderDisplay, map[string]string{"c_id": strconv.Itoa(noOrders)}},
		{"search_request", PageSearchRequest, nil},
		{"execute_search_title", PageExecuteSearch, map[string]string{"field": "title", "terms": "THE"}},
		{"execute_search_author", PageExecuteSearch, map[string]string{"field": "author", "terms": "s"}},
		{"execute_search_none", PageExecuteSearch, map[string]string{"field": "title", "terms": "<no \"such\" title>"}},
		{"new_products", PageNewProducts, map[string]string{"subject": Subjects[0]}},
		{"new_products_default", PageNewProducts, nil},
		{"product_detail", PageProductDetail, map[string]string{"i_id": "42"}},
		{"admin_request", PageAdminRequest, map[string]string{"i_id": "11"}},
		{"admin_response", PageAdminResponse, map[string]string{"i_id": "11", "cost": "55.55"}},
	}
	for _, s := range Subjects[:3] {
		steps = append(steps, goldenStep{"best_sellers_" + s, PageBestSellers, map[string]string{"subject": s}})
	}

	got := make(map[string]string, len(steps))
	seen := map[string]bool{}
	for _, s := range steps {
		body, _ := call(t, app, conn, s.page, s.query)
		got[s.name] = body
		seen[s.page] = true
	}
	for _, p := range Pages {
		if !seen[p] {
			t.Errorf("script never requests %s", p)
		}
	}

	if *updateGolden {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", " ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPagesFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPagesFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("recorded %d bodies, script has %d steps", len(want), len(got))
	}
	for _, s := range steps {
		if got[s.name] != want[s.name] {
			t.Errorf("%s: body differs from the recording\n got: %q\nwant: %q", s.name, got[s.name], want[s.name])
		}
	}
}
