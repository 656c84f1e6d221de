package tpcw

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
)

// smallCfg keeps population fast for unit tests.
var smallCfg = PopulateConfig{Items: 200, Customers: 50, Orders: 60}

// Populate fills db with the full, unsharded dataset.
func Populate(db *sqldb.DB, cfg PopulateConfig) (Counts, error) {
	return PopulateShard(db, cfg, nil)
}

// newBookstore builds a populated database and app for tests.
func newBookstore(t *testing.T) (*App, *sqldb.Conn) {
	t.Helper()
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	if err := CreateTables(db); err != nil {
		t.Fatal(err)
	}
	counts, err := Populate(db, smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	app := NewApp(counts, nil)
	conn := db.Connect()
	t.Cleanup(conn.Close)
	return app, conn
}

// call runs one handler and renders its deferred template, verifying the
// full handler->template path.
func call(t *testing.T, app *App, conn *sqldb.Conn, page string, query map[string]string) (string, *server.Result) {
	t.Helper()
	h, ok := app.Handler(page)
	if !ok {
		t.Fatalf("no handler for %s", page)
	}
	if query == nil {
		query = map[string]string{}
	}
	res, err := h(&server.Request{Path: page, Query: query, DB: conn})
	if err != nil {
		t.Fatalf("%s: %v", page, err)
	}
	if res.Body != "" {
		return res.Body, res
	}
	out, err := app.Templates().Render(res.Template, res.Data)
	if err != nil {
		t.Fatalf("%s render: %v", page, err)
	}
	return out, res
}

func TestPopulateCounts(t *testing.T) {
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	if err := CreateTables(db); err != nil {
		t.Fatal(err)
	}
	counts, err := Populate(db, smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Items != 200 || counts.Customers != 50 || counts.Orders != 60 {
		t.Fatalf("counts = %+v", counts)
	}
	if counts.OrderLines < counts.Orders {
		t.Fatalf("order lines %d < orders %d", counts.OrderLines, counts.Orders)
	}
	for table, want := range map[string]int{
		TableItem: 200, TableCustomer: 50, TableOrders: 60,
		TableCountry: len(countryNames), TableCCXacts: 60,
	} {
		n, err := db.TableSize(table)
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("%s rows = %d, want %d", table, n, want)
		}
	}
}

func TestPopulateDeterministic(t *testing.T) {
	titles := func() string {
		db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
		if err := CreateTables(db); err != nil {
			t.Fatal(err)
		}
		if _, err := Populate(db, smallCfg); err != nil {
			t.Fatal(err)
		}
		c := db.Connect()
		defer c.Close()
		rs, err := c.Query("SELECT i_title FROM item WHERE i_id = 42")
		if err != nil {
			t.Fatal(err)
		}
		return rs.Str(0, "i_title")
	}
	if a, b := titles(), titles(); a != b || a == "" {
		t.Fatalf("population not deterministic: %q vs %q", a, b)
	}
}

// TestRandomPhrasesMatchConcatenation pins the generated text to what
// joining the words one `+=` at a time made, from the same draws, so the
// populated rows do not change; and each phrase is one allocation.
func TestRandomPhrasesMatchConcatenation(t *testing.T) {
	concat := func(rng *rand.Rand, n int) string {
		s := ""
		for i := 0; i < n; i++ {
			if i > 0 {
				s += " "
			}
			s += titleWords[rng.Intn(len(titleWords))]
		}
		return s
	}
	got, want := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for id := 0; id < 2000; id++ {
		n := id % 32
		if a, b := randomWords(got, n), concat(want, n); a != b {
			t.Fatalf("randomWords(%d) = %q, concatenation %q", n, a, b)
		}
		if a, b := randomTitle(got, id), concat(want, 2+want.Intn(3))+" #"+strconv.Itoa(id); a != b {
			t.Fatalf("randomTitle(%d) = %q, concatenation %q", id, a, b)
		}
	}
	if n := testing.AllocsPerRun(100, func() { randomTitle(got, 123456) }); n != 1 {
		t.Errorf("randomTitle: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { randomWords(got, 30) }); n != 1 {
		t.Errorf("randomWords: %v allocations, want 1", n)
	}
}

func TestAllFourteenPagesRender(t *testing.T) {
	app, conn := newBookstore(t)
	for _, page := range Pages {
		out, _ := call(t, app, conn, page, nil)
		if !strings.Contains(out, "<html>") && !strings.Contains(out, "<h2>") {
			t.Errorf("%s output does not look like HTML: %.80q", page, out)
		}
	}
}

func TestAllPagesDeferRendering(t *testing.T) {
	// Every page must return an unrendered template (the paper's
	// one-line modification), so the staged server can render it in the
	// rendering pool.
	app, conn := newBookstore(t)
	for _, page := range Pages {
		h, _ := app.Handler(page)
		res, err := h(&server.Request{Path: page, Query: map[string]string{}, DB: conn})
		if err != nil {
			t.Fatalf("%s: %v", page, err)
		}
		if !res.Deferred() {
			t.Errorf("%s did not defer rendering (template=%q body=%q)", page, res.Template, res.Body)
		}
	}
}

func TestHomeGreetsCustomer(t *testing.T) {
	app, conn := newBookstore(t)
	out, _ := call(t, app, conn, PageHome, map[string]string{"c_id": "7"})
	if !strings.Contains(out, "Welcome back,") {
		t.Fatalf("home did not greet customer: %.200s", out)
	}
	if !strings.Contains(out, "/img/thumb_") {
		t.Fatal("home has no promotional thumbnails")
	}
}

func TestProductDetailShowsItem(t *testing.T) {
	app, conn := newBookstore(t)
	out, _ := call(t, app, conn, PageProductDetail, map[string]string{"i_id": "17"})
	if !strings.Contains(out, "#17") {
		t.Fatalf("product detail missing title for item 17: %.300s", out)
	}
	if !strings.Contains(out, "Our price: $") {
		t.Fatal("product detail missing price")
	}
}

func TestProductDetailUnknownItem(t *testing.T) {
	app, conn := newBookstore(t)
	h, _ := app.Handler(PageProductDetail)
	res, err := h(&server.Request{Path: PageProductDetail, Query: map[string]string{"i_id": "99999"}, DB: conn})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 404 {
		t.Fatalf("status = %d, want 404", res.Status)
	}
}

func TestShoppingCartFlow(t *testing.T) {
	app, conn := newBookstore(t)
	// New cart with an item.
	out, res := call(t, app, conn, PageShoppingCart, map[string]string{"i_id": "5", "qty": "2"})
	if !strings.Contains(out, "#5") {
		t.Fatalf("cart missing added item: %.300s", out)
	}
	scID, ok := res.Data["sc_id"].(int)
	if !ok || scID == 0 {
		t.Fatalf("no cart id in %v", res.Data["sc_id"])
	}
	// Adding the same item again increments the quantity.
	_, res2 := call(t, app, conn, PageShoppingCart, map[string]string{
		"sc_id": itoa(scID), "i_id": "5", "qty": "1"})
	lines := res2.Data["lines"].(*sqldb.ResultSet)
	if lines.Len() != 1 {
		t.Fatalf("lines = %d, want 1 (merged)", lines.Len())
	}
	if qty := lines.Int(0, "scl_qty"); qty != 3 {
		t.Fatalf("merged qty = %d, want 3", qty)
	}
	if sub := lines.Float(0, "subtotal"); sub != 3*lines.Float(0, "i_cost") || sub <= 0 {
		t.Fatalf("line subtotal = %v, want 3 x %v", sub, lines.Float(0, "i_cost"))
	}
	if res2.Data["sc_sub_total"].(float64) <= 0 {
		t.Fatal("zero subtotal")
	}
}

func TestBuyFlowCreatesOrder(t *testing.T) {
	app, conn := newBookstore(t)
	_, cartRes := call(t, app, conn, PageShoppingCart, map[string]string{"i_id": "9", "qty": "1"})
	scID := cartRes.Data["sc_id"].(int)

	out, _ := call(t, app, conn, PageBuyRequest, map[string]string{
		"sc_id": itoa(scID), "uname": Uname(3), "passwd": "pw3"})
	if !strings.Contains(out, "Confirm your purchase") {
		t.Fatalf("buy request page wrong: %.200s", out)
	}

	before, _ := conn.DB().TableSize("orders")
	_, confirmRes := call(t, app, conn, PageBuyConfirm, map[string]string{
		"sc_id": itoa(scID), "c_id": "3"})
	if after, _ := conn.DB().TableSize("orders"); after != before+1 {
		t.Fatalf("order not created: %d -> %d", before, after)
	}
	oID := confirmRes.Data["o_id"].(int64)
	// Order lines copied from the cart.
	ol, err := conn.Query("SELECT * FROM order_line WHERE ol_o_id = ?", oID)
	if err != nil {
		t.Fatal(err)
	}
	if ol.Len() != 1 {
		t.Fatalf("order lines = %d, want 1", ol.Len())
	}
	// Cart emptied.
	cart, err := conn.Query("SELECT * FROM shopping_cart_line WHERE scl_sc_id = ?", scID)
	if err != nil {
		t.Fatal(err)
	}
	if cart.Len() != 0 {
		t.Fatalf("cart still has %d lines", cart.Len())
	}
	// Credit card transaction recorded.
	cc, err := conn.Query("SELECT * FROM cc_xacts WHERE cx_o_id = ?", oID)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Len() != 1 {
		t.Fatal("cc_xact missing")
	}
}

func TestOrderDisplayShowsLastOrder(t *testing.T) {
	app, conn := newBookstore(t)
	// Find a customer with at least one order.
	rs, err := conn.Query("SELECT o_c_id FROM orders WHERE o_id = 1")
	if err != nil {
		t.Fatal(err)
	}
	cid := rs.Int(0, "o_c_id")
	out, res := call(t, app, conn, PageOrderDisplay, map[string]string{"uname": Uname(int(cid))})
	if res.Data["o_id"] == nil {
		t.Fatalf("no order shown for customer %d: %.200s", cid, out)
	}
	if !strings.Contains(out, "Order ") {
		t.Fatalf("order display malformed: %.200s", out)
	}
}

func TestExecuteSearchFindsMatches(t *testing.T) {
	app, conn := newBookstore(t)
	out, res := call(t, app, conn, PageExecuteSearch, map[string]string{
		"field": "title", "terms": "THE"})
	results := res.Data["results"].(*sqldb.ResultSet)
	if results.Len() == 0 {
		t.Fatal("search for common word found nothing")
	}
	if results.Len() > 50 {
		t.Fatalf("results = %d, exceeds LIMIT 50", results.Len())
	}
	if !strings.Contains(out, "Results for") {
		t.Fatalf("search page malformed: %.200s", out)
	}
	// Author and subject search paths.
	_, res = call(t, app, conn, PageExecuteSearch, map[string]string{"field": "author", "terms": "s"})
	if res.Data["field"] != "author" {
		t.Fatal("author field not honored")
	}
	_, res = call(t, app, conn, PageExecuteSearch, map[string]string{"field": "subject", "terms": "arts"})
	if res.Data["field"] != "subject" {
		t.Fatal("subject field not honored")
	}
}

func TestNewProductsSortedByDate(t *testing.T) {
	app, conn := newBookstore(t)
	_, res := call(t, app, conn, PageNewProducts, map[string]string{"subject": Subjects[0]})
	results := res.Data["results"].(*sqldb.ResultSet)
	if results.Len() == 0 {
		t.Fatal("no new products for subject")
	}
	for i := 1; i < results.Len(); i++ {
		prev, _ := results.Get(i-1, "i_pub_date").(time.Time)
		cur, _ := results.Get(i, "i_pub_date").(time.Time)
		if prev.IsZero() || cur.After(prev) {
			t.Fatalf("results not sorted by pub date desc at %d", i)
		}
	}
}

func TestBestSellersAggregates(t *testing.T) {
	app, conn := newBookstore(t)
	// With a small population every subject may not have sales; find one
	// that does by checking a few subjects.
	found := false
	for _, subj := range Subjects {
		_, res := call(t, app, conn, PageBestSellers, map[string]string{"subject": subj})
		results := res.Data["results"].(*sqldb.ResultSet)
		if results.Len() == 0 {
			continue
		}
		found = true
		for i := 1; i < results.Len(); i++ {
			if results.Int(i, "qty") > results.Int(i-1, "qty") {
				t.Fatalf("best sellers not sorted by qty desc")
			}
		}
		break
	}
	if !found {
		t.Fatal("no subject had any best sellers")
	}
}

func TestAdminFlowUpdatesItem(t *testing.T) {
	app, conn := newBookstore(t)
	out, _ := call(t, app, conn, PageAdminRequest, map[string]string{"i_id": "11"})
	if !strings.Contains(out, "Edit item 11") {
		t.Fatalf("admin request malformed: %.200s", out)
	}
	_, res := call(t, app, conn, PageAdminResponse, map[string]string{
		"i_id": "11", "cost": "55.55"})
	if res.Data["i_cost"].(float64) != 55.55 {
		t.Fatalf("cost not updated: %v", res.Data["i_cost"])
	}
	rs, err := conn.Query("SELECT i_cost, i_related1 FROM item WHERE i_id = 11")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Float(0, "i_cost") != 55.55 {
		t.Fatalf("persisted cost = %v", rs.Float(0, "i_cost"))
	}
	if rs.Int(0, "i_related1") != 12 {
		t.Fatalf("related1 = %d, want 12", rs.Int(0, "i_related1"))
	}
}

func TestStaticAssetsServed(t *testing.T) {
	app, _ := newBookstore(t)
	for _, path := range []string{"/img/banner.gif", "/img/footer.gif", "/img/thumb_0.gif", "/img/image_99.gif"} {
		body, ct, ok := app.Static(path)
		if !ok {
			t.Fatalf("missing static %s", path)
		}
		if ct != "image/gif" || !strings.HasPrefix(string(body[:6]), "GIF89a") {
			t.Fatalf("%s not a gif", path)
		}
	}
	if _, _, ok := app.Static("/img/nope.gif"); ok {
		t.Fatal("unknown static served")
	}
}

func TestPagesEmbedImageReferences(t *testing.T) {
	// The workload generator fetches embedded images; pages must
	// reference resolvable static paths.
	app, conn := newBookstore(t)
	out, _ := call(t, app, conn, PageHome, nil)
	if !strings.Contains(out, `src="/img/banner.gif"`) {
		t.Fatal("home missing banner image")
	}
	n := strings.Count(out, `src="/img/`)
	if n < 5 {
		t.Fatalf("home references %d images, want >= 5", n)
	}
}

func TestMixDistribution(t *testing.T) {
	m := NewMix(BrowsingMix)
	rng := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[m.Pick(rng)]++
	}
	for _, w := range BrowsingMix {
		got := float64(counts[w.Page]) / draws * 100
		if got < w.Weight*0.8-0.05 || got > w.Weight*1.2+0.05 {
			t.Errorf("%s frequency %.2f%%, want ~%.2f%%", w.Page, got, w.Weight)
		}
	}
}

func TestMixWeightsSumTo100(t *testing.T) {
	total := 0.0
	for _, w := range BrowsingMix {
		total += w.Weight
	}
	if total < 99.99 || total > 100.01 {
		t.Fatalf("browsing mix sums to %v, want 100", total)
	}
}

func TestMixValidation(t *testing.T) {
	for name, weights := range map[string][]PageWeight{
		"empty":       {},
		"zero weight": {{Page: "/x", Weight: 0}},
		"neg weight":  {{Page: "/x", Weight: -1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mix did not panic", name)
				}
			}()
			NewMix(weights)
		}()
	}
}

func TestPageTitle(t *testing.T) {
	if got := PageTitle(PageBuyConfirm); got != "TPC-W buy confirm" {
		t.Fatalf("PageTitle = %q", got)
	}
	if got := PageTitle(PageHome); got != "TPC-W home" {
		t.Fatalf("PageTitle = %q", got)
	}
}

func TestSlowPagesMatchPaper(t *testing.T) {
	want := []string{PageBestSellers, PageExecuteSearch, PageNewProducts, PageAdminResponse}
	if len(SlowPages) != len(want) {
		t.Fatalf("SlowPages = %v", SlowPages)
	}
	for _, p := range want {
		if !SlowPages[p] {
			t.Fatalf("%s missing from SlowPages", p)
		}
	}
}

func itoa(n int) string {
	return fmtInt(n)
}

func fmtInt(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func TestParamHelpers(t *testing.T) {
	q := map[string]string{"a": "5", "bad": "x", "neg": "-3", "f": "2.5"}
	if got := intParam(q, "a", 1); got != 5 {
		t.Fatalf("intParam = %d", got)
	}
	if got := intParam(q, "bad", 7); got != 7 {
		t.Fatalf("intParam bad = %d", got)
	}
	if got := intParam(q, "neg", 7); got != 7 {
		t.Fatalf("intParam negative = %d", got)
	}
	if got := intParam(q, "missing", 9); got != 9 {
		t.Fatalf("intParam missing = %d", got)
	}
	if got := floatParam(q, "f", 1); got != 2.5 {
		t.Fatalf("floatParam = %v", got)
	}
	if got := floatParam(q, "bad", 1.5); got != 1.5 {
		t.Fatalf("floatParam bad = %v", got)
	}
}

func TestAppAccessorsAndRotation(t *testing.T) {
	app, _ := newBookstore(t)
	seen := map[int]bool{}
	for i := 0; i < 10; i++ {
		seen[app.defaultItem()] = true
	}
	if len(seen) < 5 {
		t.Fatalf("defaultItem barely rotates: %v", seen)
	}
	for i := 0; i < 1000; i++ {
		if id := app.defaultCustomer(); id < 1 || id > smallCfg.Customers {
			t.Fatalf("defaultCustomer out of range: %d", id)
		}
	}
}

func TestUnameRoundTrip(t *testing.T) {
	app, conn := newBookstore(t)
	_ = app
	rs, err := conn.Query("SELECT c_id FROM customer WHERE c_uname = ?", Uname(17))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Int(0, "c_id") != 17 {
		t.Fatalf("uname lookup: %v", rs.Rows)
	}
}

// bestSellerArgs records the arguments of the best-sellers statement on
// their way to the database.
type bestSellerArgs struct {
	*sqldb.Conn
	recent int64
}

func (c *bestSellerArgs) Query(sql string, args ...any) (*sqldb.ResultSet, error) {
	if strings.Contains(sql, "SUM(ol_qty)") {
		switch v := args[0].(type) {
		case int:
			c.recent = int64(v)
		case int64:
			c.recent = v
		}
	}
	return c.Conn.Query(sql, args...)
}

// TestBestSellersWindowFollowsNewOrders is the regression test for a
// window that did not move: best-sellers ranks the newest 3333 orders, so
// its lower bound has to follow the orders confirmed while the server
// runs. Frozen at the populated count it admitted every order line ever
// inserted, and the page read more rows with every order.
func TestBestSellersWindowFollowsNewOrders(t *testing.T) {
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	if err := CreateTables(db); err != nil {
		t.Fatal(err)
	}
	counts, err := Populate(db, smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := CreateExtraIndexes(db); err != nil { // ol_o_id ordered: the window is a range walk
		t.Fatal(err)
	}
	app := NewApp(counts, nil)
	sc := db.Connect()
	defer sc.Close()
	conn := &bestSellerArgs{Conn: sc}
	run := func(page string, query map[string]string) *server.Result {
		t.Helper()
		h, _ := app.Handler(page)
		res, err := h(&server.Request{Path: page, Query: query, DB: conn})
		if err != nil {
			t.Fatalf("%s: %v", page, err)
		}
		return res
	}
	newest := int64(counts.Orders)
	confirm := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			cart := run(PageShoppingCart, map[string]string{"i_id": strconv.Itoa(1 + i%counts.Items)})
			order := run(PageBuyConfirm, map[string]string{"sc_id": strconv.Itoa(cart.Data["sc_id"].(int))})
			newest = order.Data["o_id"].(int64)
		}
	}
	bestSellers := func() (recent, rowsRead int64) {
		t.Helper()
		before := db.PlanRowsRead()
		run(PageBestSellers, map[string]string{"subject": "ARTS"})
		return conn.recent, db.PlanRowsRead() - before
	}

	if recent, _ := bestSellers(); recent != 0 {
		t.Fatalf("recent = %v with %d orders, want 0", recent, counts.Orders)
	}
	confirm(bestSellerWindow + 100)
	recent, rows := bestSellers()
	if recent != newest-bestSellerWindow || newest != int64(counts.Orders+bestSellerWindow+100) {
		t.Fatalf("recent = %v after order %d, want %d", recent, newest, newest-bestSellerWindow)
	}
	confirm(1000)
	recent, rowsLater := bestSellers()
	if recent != newest-bestSellerWindow {
		t.Fatalf("recent = %v after order %d, want %d", recent, newest, newest-bestSellerWindow)
	}
	// The window now holds the same number of orders, one line each; what
	// still varies is the ordered index's merge buffer and how many of
	// the window's items are ARTS. A window that did not move would have
	// read at least two more rows per new order.
	if rowsLater > rows+600 {
		t.Fatalf("best-sellers read %d rows at order %d and %d rows 1000 orders later: the window is growing", rows, newest-1000, rowsLater)
	}
}
