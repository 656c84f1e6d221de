package tpcw

import (
	"fmt"
	"strings"

	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
)

// This file implements the 14 TPC-W web interactions. Every handler
// follows the paper's modified Django convention: perform the database
// queries on the worker's connection, then return the *unrendered*
// template name plus the data context — the "return (tmpl.html, data)"
// one-line change of Section 3.1.

// home is the TPC-W home interaction: greeting plus promotional items.
func (a *App) home(r *server.Request) (*server.Result, error) {
	data := map[string]any{"subjects": subjectValues}
	if cid := intParam(r.Query, "c_id", 0); cid > 0 {
		rs, err := r.DB.Query("SELECT c_fname, c_lname FROM customer WHERE c_id = ?", cid)
		if err != nil {
			return nil, errPage(PageHome, err)
		}
		if rs.Len() > 0 {
			data["c_id"] = cid
			data["c_fname"] = rs.Str(0, "c_fname")
			data["c_lname"] = rs.Str(0, "c_lname")
		}
	}
	promos, err := a.promotions(r.DB)
	if err != nil {
		return nil, errPage(PageHome, err)
	}
	data["promotions"] = promos
	return &server.Result{Template: "home.html", Data: data}, nil
}

// subjectValues is Subjects boxed once, for the home page's list: looping
// over the []string would box every name again on every render.
var subjectValues = func() []any {
	vals := make([]any, len(Subjects))
	for i, s := range Subjects {
		vals[i] = s
	}
	return vals
}()

// promotions picks five items by rotating point lookups — the TPC-W
// promotional display on home, cart, and search pages — and returns the
// rows found as one result, which promo.html walks in place.
func (a *App) promotions(db server.DBConn) (*sqldb.ResultSet, error) {
	out := &sqldb.ResultSet{Rows: make([][]sqldb.Value, 0, 5)}
	for k := 0; k < 5; k++ {
		// An int64 is boxed once, here; an int again when sqldb normalizes it.
		rs, err := db.Query("SELECT i_id, i_title, i_thumbnail FROM item WHERE i_id = ?", int64(a.defaultItem()))
		if err != nil {
			return nil, err
		}
		out.Columns = rs.Columns
		out.Rows = append(out.Rows, rs.Rows...)
	}
	return out, nil
}

// shoppingCart creates/loads a cart, optionally adds an item, and shows
// the cart contents.
func (a *App) shoppingCart(r *server.Request) (*server.Result, error) {
	scID := intParam(r.Query, "sc_id", 0)
	if scID == 0 {
		res, err := r.DB.Exec("INSERT INTO shopping_cart (sc_id, sc_time) VALUES (NULL, ?)", a.clk.Now())
		if err != nil {
			return nil, errPage(PageShoppingCart, err)
		}
		scID = int(res.LastInsertID)
	}
	if iID := intParam(r.Query, "i_id", 0); iID > 0 {
		qty := intParam(r.Query, "qty", 1)
		existing, err := r.DB.Query(
			"SELECT scl_id, scl_qty FROM shopping_cart_line WHERE scl_sc_id = ? AND scl_i_id = ?", scID, iID)
		if err != nil {
			return nil, errPage(PageShoppingCart, err)
		}
		if existing.Len() > 0 {
			if _, err := r.DB.Exec("UPDATE shopping_cart_line SET scl_qty = ? WHERE scl_id = ?",
				existing.Int(0, "scl_qty")+int64(qty), existing.Int(0, "scl_id")); err != nil {
				return nil, errPage(PageShoppingCart, err)
			}
		} else {
			if _, err := r.DB.Exec(
				"INSERT INTO shopping_cart_line (scl_id, scl_sc_id, scl_i_id, scl_qty) VALUES (NULL, ?, ?, ?)",
				scID, iID, qty); err != nil {
				return nil, errPage(PageShoppingCart, err)
			}
		}
	}
	lines, subTotal, err := a.cartLines(r.DB, scID)
	if err != nil {
		return nil, errPage(PageShoppingCart, err)
	}
	promos, err := a.promotions(r.DB)
	if err != nil {
		return nil, errPage(PageShoppingCart, err)
	}
	return &server.Result{Template: "shopping_cart.html", Data: map[string]any{
		"sc_id":        scID,
		"lines":        lines,
		"sc_sub_total": subTotal,
		"promotions":   promos,
	}}, nil
}

// cartLines loads a cart's lines joined with item data, appends each
// line's subtotal as a column of the result, and computes the cart's
// subtotal.
func (a *App) cartLines(db server.DBConn, scID int) (*sqldb.ResultSet, float64, error) {
	rs, err := db.Query(
		`SELECT scl_i_id, scl_qty, i_id, i_title, i_cost FROM shopping_cart_line
		 JOIN item ON scl_i_id = i_id WHERE scl_sc_id = ?`, scID)
	if err != nil {
		return nil, 0, err
	}
	// The rows are ours; Columns is shared with the cached statement, so
	// the extended header is a copy.
	rs.Columns = append(rs.Columns[:len(rs.Columns):len(rs.Columns)], "subtotal")
	subTotal := 0.0
	for i, row := range rs.Rows {
		line := float64(rs.Int(i, "scl_qty")) * rs.Float(i, "i_cost")
		rs.Rows[i] = append(row, line)
		subTotal += line
	}
	return rs, subTotal, nil
}

// customerRegistration shows the checkout identification form.
func (a *App) customerRegistration(r *server.Request) (*server.Result, error) {
	return &server.Result{Template: "customer_registration.html", Data: map[string]any{
		"sc_id": intParam(r.Query, "sc_id", 0),
	}}, nil
}

// lookupCustomer finds a customer by uname (indexed) or falls back to a
// rotating default, mirroring the emulated browser's registered-user mix.
// The customer is row 0 of the result; no customer is an error.
func (a *App) lookupCustomer(db server.DBConn, q map[string]string) (*sqldb.ResultSet, error) {
	if uname := q["uname"]; uname != "" {
		rs, err := db.Query("SELECT * FROM customer WHERE c_uname = ?", uname)
		if err != nil || rs.Len() > 0 {
			return rs, err
		}
	}
	cid := intParam(q, "c_id", a.defaultCustomer())
	rs, err := db.Query("SELECT * FROM customer WHERE c_id = ?", cid)
	if err == nil && rs.Len() == 0 {
		err = fmt.Errorf("no customer %d", cid)
	}
	return rs, err
}

// putRow puts the cells of rs's first row, if it has one, on a page
// under their column names.
func putRow(data map[string]any, rs *sqldb.ResultSet) {
	if rs.Len() > 0 {
		for j, c := range rs.Columns {
			data[c] = rs.Rows[0][j]
		}
	}
}

// buyRequest shows the order confirmation page: customer, billing
// address, cart contents, and totals.
func (a *App) buyRequest(r *server.Request) (*server.Result, error) {
	cust, err := a.lookupCustomer(r.DB, r.Query)
	if err != nil {
		return nil, errPage(PageBuyRequest, fmt.Errorf("customer lookup: %v", err))
	}
	data := make(map[string]any, 16)
	for _, c := range []string{"c_id", "c_uname", "c_fname", "c_lname", "c_discount"} {
		data[c] = cust.Get(0, c)
	}
	addr, err := r.DB.Query(
		`SELECT addr_street1, addr_city, addr_state, addr_zip, co_name FROM address
		 JOIN country ON addr_co_id = co_id WHERE addr_id = ?`, cust.Get(0, "c_addr_id"))
	if err != nil {
		return nil, errPage(PageBuyRequest, err)
	}
	putRow(data, addr)
	scID := intParam(r.Query, "sc_id", 0)
	lines, subTotal, err := a.cartLines(r.DB, scID)
	if err != nil {
		return nil, errPage(PageBuyRequest, err)
	}
	tax := subTotal * 0.0825
	data["sc_id"] = scID
	data["lines"] = lines
	data["sc_sub_total"] = subTotal
	data["tax"] = tax
	data["total"] = subTotal + tax
	return &server.Result{Template: "buy_request.html", Data: data}, nil
}

// buyConfirm turns the cart into an order: inserts the order, its lines,
// and the credit-card transaction, then empties the cart.
func (a *App) buyConfirm(r *server.Request) (*server.Result, error) {
	scID := intParam(r.Query, "sc_id", 0)
	cID := intParam(r.Query, "c_id", a.defaultCustomer())
	lines, subTotal, err := a.cartLines(r.DB, scID)
	if err != nil {
		return nil, errPage(PageBuyConfirm, err)
	}
	total := subTotal * 1.0825
	now := a.clk.Now()
	shipType := shipTypes[int(a.spin())%len(shipTypes)]

	res, err := r.DB.Exec(
		`INSERT INTO orders (o_id, o_c_id, o_date, o_sub_total, o_total, o_ship_type,
		 o_ship_date, o_bill_addr_id, o_ship_addr_id, o_status)
		 VALUES (NULL, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
		cID, now, subTotal, total, shipType, now.AddDate(0, 0, 3), cID, cID, "PENDING")
	if err != nil {
		return nil, errPage(PageBuyConfirm, err)
	}
	oID := res.LastInsertID
	a.noteOrder(oID)
	for i := range lines.Rows {
		if _, err := r.DB.Exec(
			"INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount, ol_comments) VALUES (NULL, ?, ?, ?, 0.0, '')",
			oID, lines.Get(i, "scl_i_id"), lines.Get(i, "scl_qty")); err != nil {
			return nil, errPage(PageBuyConfirm, err)
		}
	}
	if _, err := r.DB.Exec(
		"INSERT INTO cc_xacts (cx_o_id, cx_type, cx_num, cx_name, cx_expire, cx_xact_amt, cx_xact_date, cx_co_id) VALUES (?, 'VISA', '4111111111111111', 'CARD HOLDER', ?, ?, ?, 1)",
		oID, now.AddDate(2, 0, 0), total, now); err != nil {
		return nil, errPage(PageBuyConfirm, err)
	}
	if _, err := r.DB.Exec("DELETE FROM shopping_cart_line WHERE scl_sc_id = ?", scID); err != nil {
		return nil, errPage(PageBuyConfirm, err)
	}
	return &server.Result{Template: "buy_confirm.html", Data: map[string]any{
		"o_id": oID, "total": total, "ship_type": shipType,
	}}, nil
}

// noteOrder raises newestOrder to id; concurrent confirms may arrive out
// of order, so it never lowers it.
func (a *App) noteOrder(id int64) {
	for {
		cur := a.newestOrder.Load()
		if id <= cur || a.newestOrder.CompareAndSwap(cur, id) {
			return
		}
	}
}

// orderInquiry shows the order-status form (no queries).
func (a *App) orderInquiry(*server.Request) (*server.Result, error) {
	return &server.Result{Template: "order_inquiry.html", Data: map[string]any{}}, nil
}

// orderDisplay shows the customer's most recent order.
func (a *App) orderDisplay(r *server.Request) (*server.Result, error) {
	cust, err := a.lookupCustomer(r.DB, r.Query)
	if err != nil {
		return nil, errPage(PageOrderDisplay, fmt.Errorf("customer lookup: %v", err))
	}
	order, err := r.DB.Query(
		"SELECT * FROM orders WHERE o_c_id = ? ORDER BY o_date DESC, o_id DESC LIMIT 1", cust.Get(0, "c_id"))
	if err != nil {
		return nil, errPage(PageOrderDisplay, err)
	}
	if order.Len() == 0 {
		return &server.Result{Template: "order_display.html", Data: map[string]any{}}, nil
	}
	lines, err := r.DB.Query(
		`SELECT ol_i_id, ol_qty, i_title, i_cost FROM order_line
		 JOIN item ON ol_i_id = i_id WHERE ol_o_id = ?`, order.Get(0, "o_id"))
	if err != nil {
		return nil, errPage(PageOrderDisplay, err)
	}
	data := map[string]any{"lines": lines}
	putRow(data, order)
	return &server.Result{Template: "order_display.html", Data: data}, nil
}

// searchRequest shows the search form plus promotions.
func (a *App) searchRequest(r *server.Request) (*server.Result, error) {
	promos, err := a.promotions(r.DB)
	if err != nil {
		return nil, errPage(PageSearchRequest, err)
	}
	return &server.Result{Template: "search_request.html", Data: map[string]any{
		"promotions": promos,
	}}, nil
}

// executeSearch runs the LIKE-based search — one of the paper's three
// inherently slow pages (full scan of the item table).
func (a *App) executeSearch(r *server.Request) (*server.Result, error) {
	field := r.Query["field"]
	terms := r.Query["terms"]
	if terms == "" {
		terms = titleWords[int(a.spin())%len(titleWords)]
	}
	pattern := "%" + terms + "%"
	var (
		rs  *sqldb.ResultSet
		err error
	)
	switch field {
	case "author":
		rs, err = r.DB.Query(
			`SELECT i_id, i_title, i_thumbnail, i_cost, a_fname, a_lname FROM item
			 JOIN author ON i_a_id = a_id WHERE a_lname LIKE ? ORDER BY i_title LIMIT 50`, pattern)
	case "subject":
		rs, err = r.DB.Query(
			`SELECT i_id, i_title, i_thumbnail, i_cost, a_fname, a_lname FROM item
			 JOIN author ON i_a_id = a_id WHERE i_subject = ? ORDER BY i_title LIMIT 50`,
			strings.ToUpper(terms))
	default:
		field = "title"
		rs, err = r.DB.Query(
			`SELECT i_id, i_title, i_thumbnail, i_cost, a_fname, a_lname FROM item
			 JOIN author ON i_a_id = a_id WHERE i_title LIKE ? ORDER BY i_title LIMIT 50`, pattern)
	}
	if err != nil {
		return nil, errPage(PageExecuteSearch, err)
	}
	return &server.Result{Template: "execute_search.html", Data: map[string]any{
		"field": field, "terms": terms, "results": rs,
	}}, nil
}

// newProducts lists the newest releases in a subject — the paper's
// slowest page: an unindexed subject filter over the whole item table
// with a publication-date sort.
func (a *App) newProducts(r *server.Request) (*server.Result, error) {
	subject := strings.ToUpper(r.Query["subject"])
	if subject == "" {
		subject = Subjects[int(a.spin())%len(Subjects)]
	}
	rs, err := r.DB.Query(
		`SELECT i_id, i_title, i_thumbnail, i_cost, i_pub_date, a_fname, a_lname FROM item
		 JOIN author ON i_a_id = a_id WHERE i_subject = ? ORDER BY i_pub_date DESC, i_id ASC LIMIT 50`,
		subject)
	if err != nil {
		return nil, errPage(PageNewProducts, err)
	}
	return &server.Result{Template: "new_products.html", Data: map[string]any{
		"subject": subject, "results": rs,
	}}, nil
}

// bestSellerWindow is how many of the newest orders best-sellers ranks.
const bestSellerWindow = 3333

// bestSellers aggregates recent order lines — the TPC-W top-50 query and
// the paper's canonical "large and very complex" slow page.
func (a *App) bestSellers(r *server.Request) (*server.Result, error) {
	subject := strings.ToUpper(r.Query["subject"])
	if subject == "" {
		subject = Subjects[int(a.spin())%len(Subjects)]
	}
	// Recent window: the TPC-W specification uses the latest 3333 orders.
	recent := max(a.newestOrder.Load()-bestSellerWindow, 0)
	rs, err := r.DB.Query(
		`SELECT i_id, i_title, i_cost, a_fname, a_lname, SUM(ol_qty) AS qty
		 FROM order_line
		 JOIN item ON ol_i_id = i_id
		 JOIN author ON i_a_id = a_id
		 WHERE ol_o_id > ? AND i_subject = ?
		 GROUP BY i_id ORDER BY qty DESC LIMIT 50`, recent, subject)
	if err != nil {
		return nil, errPage(PageBestSellers, err)
	}
	return &server.Result{Template: "best_sellers.html", Data: map[string]any{
		"subject": subject, "results": rs,
	}}, nil
}

// productDetail shows one book — an indexed point query, the paper's
// canonical fast page.
func (a *App) productDetail(r *server.Request) (*server.Result, error) {
	iID := intParam(r.Query, "i_id", a.defaultItem())
	rs, err := r.DB.Query(
		"SELECT * FROM item JOIN author ON i_a_id = a_id WHERE i_id = ?", iID)
	if err != nil {
		return nil, errPage(PageProductDetail, err)
	}
	if rs.Len() == 0 {
		return &server.Result{Status: 404, Body: "<html>no such item</html>"}, nil
	}
	return &server.Result{Template: "product_detail.html", Data: map[string]any{"item": rs}}, nil
}

// adminRequest shows the item-edit form.
func (a *App) adminRequest(r *server.Request) (*server.Result, error) {
	iID := intParam(r.Query, "i_id", a.defaultItem())
	rs, err := r.DB.Query("SELECT i_id, i_title, i_cost, i_image FROM item WHERE i_id = ?", iID)
	if err != nil {
		return nil, errPage(PageAdminRequest, err)
	}
	if rs.Len() == 0 {
		return &server.Result{Status: 404, Body: "<html>no such item</html>"}, nil
	}
	return &server.Result{Template: "admin_request.html", Data: map[string]any{"item": rs}}, nil
}

// adminResponse applies the item update. The statement itself is cheap —
// the paper notes the page is "quite fast" without load — but it needs
// the item table's *write* lock, and nearly every other page holds read
// locks on item, so under load this page queues behind in-flight scans
// (the paper's explanation for its slowdown on the modified server).
func (a *App) adminResponse(r *server.Request) (*server.Result, error) {
	iID := intParam(r.Query, "i_id", a.defaultItem())
	cost := floatParam(r.Query, "cost", 10+float64(a.spin()%90))
	image := r.Query["image"]
	if image == "" {
		image = fmt.Sprintf("/img/image_%d.gif", iID%imageBuckets)
	}
	// Recompute the related-items ring deterministically.
	rel := make([]any, 5)
	for k := 0; k < 5; k++ {
		rel[k] = (iID+k)%a.items + 1
	}
	if _, err := r.DB.Exec(
		`UPDATE item SET i_cost = ?, i_image = ?, i_related1 = ?, i_related2 = ?,
		 i_related3 = ?, i_related4 = ?, i_related5 = ? WHERE i_id = ?`,
		cost, image, rel[0], rel[1], rel[2], rel[3], rel[4], iID); err != nil {
		return nil, errPage(PageAdminResponse, err)
	}
	rs, err := r.DB.Query("SELECT i_id, i_title, i_cost FROM item WHERE i_id = ?", iID)
	if err != nil {
		return nil, errPage(PageAdminResponse, err)
	}
	data := map[string]any{"i_id": iID, "related": rel}
	putRow(data, rs)
	return &server.Result{Template: "admin_response.html", Data: data}, nil
}
