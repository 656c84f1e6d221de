// Package tpcw implements the TPC-W transactional web e-commerce
// benchmark — the online bookstore the paper evaluates with — as a
// template-based web application on this repository's stack.
//
// Like the authors (who implemented TPC-W from scratch in Django because
// existing implementations used traditional JSP/PHP-style content
// generation), this package implements the benchmark from scratch in the
// deferred-rendering handler style: every one of the 14 web interactions
// is a handler that performs its database queries and returns
// (template, data).
//
// The relational schema follows the TPC-W specification's ten tables,
// trimmed to the columns the 14 interactions touch. Index placement is
// what produces the paper's fast/slow page split:
//
//   - point lookups (primary keys, customer uname, order customer) are
//     indexed and fast;
//   - the best-sellers aggregation, the new-products listing, and the
//     LIKE-based search all scan, and are the paper's three "very slow"
//     pages;
//   - admin confirm updates the item table — read by nearly every other
//     page — and therefore queues on the table's write lock under load,
//     the paper's fourth slow page.
package tpcw

import "stagedweb/internal/sqldb"

// Table names.
const (
	TableItem     = "item"
	TableAuthor   = "author"
	TableCustomer = "customer"
	TableAddress  = "address"
	TableCountry  = "country"
	TableOrders   = "orders"
	TableOrderLn  = "order_line"
	TableCCXacts  = "cc_xacts"
	TableCart     = "shopping_cart"
	TableCartLn   = "shopping_cart_line"
)

// Schemas returns the TPC-W table definitions.
func Schemas() []sqldb.Schema {
	return []sqldb.Schema{
		{
			Table: TableItem,
			Columns: []sqldb.Column{
				{Name: "i_id", Type: sqldb.Int},
				{Name: "i_title", Type: sqldb.String},
				{Name: "i_a_id", Type: sqldb.Int},
				{Name: "i_pub_date", Type: sqldb.Time},
				{Name: "i_subject", Type: sqldb.String},
				{Name: "i_desc", Type: sqldb.String},
				{Name: "i_thumbnail", Type: sqldb.String},
				{Name: "i_image", Type: sqldb.String},
				{Name: "i_srp", Type: sqldb.Float},
				{Name: "i_cost", Type: sqldb.Float},
				{Name: "i_avail", Type: sqldb.Time},
				{Name: "i_stock", Type: sqldb.Int},
				{Name: "i_related1", Type: sqldb.Int},
				{Name: "i_related2", Type: sqldb.Int},
				{Name: "i_related3", Type: sqldb.Int},
				{Name: "i_related4", Type: sqldb.Int},
				{Name: "i_related5", Type: sqldb.Int},
			},
			PrimaryKey: "i_id",
			// i_subject is deliberately unindexed: the TPC-W new-products
			// listing must scan, per the paper's slow-page analysis.
		},
		{
			Table: TableAuthor,
			Columns: []sqldb.Column{
				{Name: "a_id", Type: sqldb.Int},
				{Name: "a_fname", Type: sqldb.String},
				{Name: "a_lname", Type: sqldb.String},
				{Name: "a_bio", Type: sqldb.String},
			},
			PrimaryKey: "a_id",
		},
		{
			Table: TableCustomer,
			Columns: []sqldb.Column{
				{Name: "c_id", Type: sqldb.Int},
				{Name: "c_uname", Type: sqldb.String},
				{Name: "c_passwd", Type: sqldb.String},
				{Name: "c_fname", Type: sqldb.String},
				{Name: "c_lname", Type: sqldb.String},
				{Name: "c_email", Type: sqldb.String},
				{Name: "c_since", Type: sqldb.Time},
				{Name: "c_discount", Type: sqldb.Float},
				{Name: "c_addr_id", Type: sqldb.Int},
			},
			PrimaryKey: "c_id",
			Indexes:    []string{"c_uname"},
		},
		{
			Table: TableAddress,
			Columns: []sqldb.Column{
				{Name: "addr_id", Type: sqldb.Int},
				{Name: "addr_street1", Type: sqldb.String},
				{Name: "addr_city", Type: sqldb.String},
				{Name: "addr_state", Type: sqldb.String},
				{Name: "addr_zip", Type: sqldb.String},
				{Name: "addr_co_id", Type: sqldb.Int},
			},
			PrimaryKey: "addr_id",
		},
		{
			Table: TableCountry,
			Columns: []sqldb.Column{
				{Name: "co_id", Type: sqldb.Int},
				{Name: "co_name", Type: sqldb.String},
			},
			PrimaryKey: "co_id",
		},
		{
			Table: TableOrders,
			Columns: []sqldb.Column{
				{Name: "o_id", Type: sqldb.Int},
				{Name: "o_c_id", Type: sqldb.Int},
				{Name: "o_date", Type: sqldb.Time},
				{Name: "o_sub_total", Type: sqldb.Float},
				{Name: "o_total", Type: sqldb.Float},
				{Name: "o_ship_type", Type: sqldb.String},
				{Name: "o_ship_date", Type: sqldb.Time},
				{Name: "o_bill_addr_id", Type: sqldb.Int},
				{Name: "o_ship_addr_id", Type: sqldb.Int},
				{Name: "o_status", Type: sqldb.String},
			},
			PrimaryKey: "o_id",
			Indexes:    []string{"o_c_id"},
		},
		{
			Table: TableOrderLn,
			Columns: []sqldb.Column{
				{Name: "ol_id", Type: sqldb.Int},
				{Name: "ol_o_id", Type: sqldb.Int},
				{Name: "ol_i_id", Type: sqldb.Int},
				{Name: "ol_qty", Type: sqldb.Int},
				{Name: "ol_discount", Type: sqldb.Float},
				{Name: "ol_comments", Type: sqldb.String},
			},
			PrimaryKey: "ol_id",
			Indexes:    []string{"ol_o_id"},
			// ol_i_id and the recent-order range filter are unindexed:
			// the best-sellers aggregation must scan, per the paper.
		},
		{
			Table: TableCCXacts,
			Columns: []sqldb.Column{
				{Name: "cx_o_id", Type: sqldb.Int},
				{Name: "cx_type", Type: sqldb.String},
				{Name: "cx_num", Type: sqldb.String},
				{Name: "cx_name", Type: sqldb.String},
				{Name: "cx_expire", Type: sqldb.Time},
				{Name: "cx_xact_amt", Type: sqldb.Float},
				{Name: "cx_xact_date", Type: sqldb.Time},
				{Name: "cx_co_id", Type: sqldb.Int},
			},
			PrimaryKey: "cx_o_id",
		},
		{
			Table: TableCart,
			Columns: []sqldb.Column{
				{Name: "sc_id", Type: sqldb.Int},
				{Name: "sc_time", Type: sqldb.Time},
			},
			PrimaryKey: "sc_id",
		},
		{
			Table: TableCartLn,
			Columns: []sqldb.Column{
				{Name: "scl_id", Type: sqldb.Int},
				{Name: "scl_sc_id", Type: sqldb.Int},
				{Name: "scl_i_id", Type: sqldb.Int},
				{Name: "scl_qty", Type: sqldb.Int},
			},
			PrimaryKey: "scl_id",
			Indexes:    []string{"scl_sc_id"},
		},
	}
}

// CreateTables registers all TPC-W tables on db.
func CreateTables(db *sqldb.DB) error {
	for _, s := range Schemas() {
		if err := db.CreateTable(s); err != nil {
			return err
		}
	}
	return nil
}

// CreateExtraIndexes builds the secondary indexes the paper's schema
// deliberately leaves out, re-running the quick/lengthy boundary under
// indexing (the indexes=on experiment):
//
//   - order_line.ol_o_id upgrades from hash to ordered, so the
//     best-sellers recent-window filter (ol_o_id > ?) becomes an index
//     range scan instead of a full scan of every order line;
//   - item.i_subject gains a hash index, so the new-products listing
//     and subject search probe 1/24th of the item table.
//
// Both are read by page statements, as every secondary index of either
// schema must be (sqldb's TestPagesUseEveryAccessPathAndIndex). The
// title/author LIKE searches get no index — no index serves an infix
// pattern — preserving the paper's contrast: some lengthy pages are
// lengthy no matter the schema.
//
// Call it on the primary before replicas are cloned (CloneSnapshot
// copies index definitions), or on any backend afterwards.
func CreateExtraIndexes(db *sqldb.DB) error {
	for _, ix := range []struct {
		table, col string
		ordered    bool
	}{
		{TableOrderLn, "ol_o_id", true},
		{TableItem, "i_subject", false},
	} {
		if err := db.CreateIndex(ix.table, ix.col, ix.ordered); err != nil {
			return err
		}
	}
	return nil
}

// Subjects are the 24 TPC-W book subjects.
var Subjects = []string{
	"ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN", "COMPUTERS", "COOKING",
	"HEALTH", "HISTORY", "HOME", "HUMOR", "LITERATURE", "MYSTERY",
	"NON-FICTION", "PARENTING", "POLITICS", "REFERENCE", "RELIGION",
	"ROMANCE", "SELF-HELP", "SCIENCE-NATURE", "SCIENCE-FICTION", "SPORTS",
	"TRAVEL", "YOUTH",
}
