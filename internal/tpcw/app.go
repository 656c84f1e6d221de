package tpcw

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"stagedweb/internal/clock"
	"stagedweb/internal/server"
	"stagedweb/internal/template"
)

// Page names (request paths) for the 14 TPC-W web interactions, in the
// order the paper's tables list them.
const (
	PageAdminRequest  = "/admin_request"
	PageAdminResponse = "/admin_response"
	PageBestSellers   = "/best_sellers"
	PageBuyConfirm    = "/buy_confirm"
	PageBuyRequest    = "/buy_request"
	PageCustomerReg   = "/customer_registration"
	PageExecuteSearch = "/execute_search"
	PageHome          = "/home"
	PageNewProducts   = "/new_products"
	PageOrderDisplay  = "/order_display"
	PageOrderInquiry  = "/order_inquiry"
	PageProductDetail = "/product_detail"
	PageSearchRequest = "/search_request"
	PageShoppingCart  = "/shopping_cart"
)

// Pages lists all 14 interactions in the paper's table order.
var Pages = []string{
	PageAdminRequest,
	PageAdminResponse,
	PageBestSellers,
	PageBuyConfirm,
	PageBuyRequest,
	PageCustomerReg,
	PageExecuteSearch,
	PageHome,
	PageNewProducts,
	PageOrderDisplay,
	PageOrderInquiry,
	PageProductDetail,
	PageSearchRequest,
	PageShoppingCart,
}

// PageTitle returns the paper's display name for a page key
// ("/buy_confirm" -> "TPC-W buy confirm").
func PageTitle(page string) string {
	name := page
	if len(name) > 0 && name[0] == '/' {
		name = name[1:]
	}
	out := make([]byte, 0, len(name)+6)
	out = append(out, "TPC-W "...)
	for i := 0; i < len(name); i++ {
		if name[i] == '_' {
			out = append(out, ' ')
		} else {
			out = append(out, name[i])
		}
	}
	return string(out)
}

// SlowPages are the interactions the paper identifies as inherently slow:
// three large scan/aggregation queries plus the admin update that queues
// on the item table's write lock.
var SlowPages = map[string]bool{
	PageBestSellers:   true,
	PageExecuteSearch: true,
	PageNewProducts:   true,
	PageAdminResponse: true,
}

// App is the TPC-W bookstore application. It implements server.App and is
// servable by both the baseline and the staged server.
type App struct {
	set     *template.Set
	statics map[string][]byte
	routes  map[string]server.HandlerFunc

	items     int
	customers int
	clk       clock.Clock

	// newestOrder is the highest order id this application has seen: the
	// populated count, raised by every confirmed order. Best-sellers'
	// "latest 3333 orders" window hangs off it.
	newestOrder atomic.Int64

	// rotor deterministically varies default parameters (promotion item
	// ids, fallback customers) across requests without a shared RNG.
	rotor atomic.Int64
}

var _ server.App = (*App)(nil)

// NewApp builds the bookstore over an already-populated database sized by
// counts. clk may be nil (real clock).
func NewApp(counts Counts, clk clock.Clock) *App {
	if clk == nil {
		clk = clock.Real{}
	}
	a := &App{
		set:       template.NewSet(),
		statics:   StaticAssets(),
		items:     counts.Items,
		customers: counts.Customers,
		clk:       clk,
	}
	a.newestOrder.Store(int64(counts.Orders))
	a.set.AddAll(Templates())
	a.routes = map[string]server.HandlerFunc{
		PageHome:          a.home,
		PageShoppingCart:  a.shoppingCart,
		PageCustomerReg:   a.customerRegistration,
		PageBuyRequest:    a.buyRequest,
		PageBuyConfirm:    a.buyConfirm,
		PageOrderInquiry:  a.orderInquiry,
		PageOrderDisplay:  a.orderDisplay,
		PageSearchRequest: a.searchRequest,
		PageExecuteSearch: a.executeSearch,
		PageNewProducts:   a.newProducts,
		PageBestSellers:   a.bestSellers,
		PageProductDetail: a.productDetail,
		PageAdminRequest:  a.adminRequest,
		PageAdminResponse: a.adminResponse,
	}
	return a
}

// Handler implements server.App.
func (a *App) Handler(path string) (server.HandlerFunc, bool) {
	h, ok := a.routes[path]
	return h, ok
}

// Static implements server.App.
func (a *App) Static(path string) ([]byte, string, bool) {
	body, ok := a.statics[path]
	if !ok {
		return nil, "", false
	}
	return body, "image/gif", true
}

// Templates implements server.App.
func (a *App) Templates() *template.Set { return a.set }

// ---- parameter helpers ----

// intParam parses query[name]; fallback is used when absent or invalid.
func intParam(q map[string]string, name string, fallback int) int {
	if s, ok := q[name]; ok {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return fallback
}

func floatParam(q map[string]string, name string, fallback float64) float64 {
	if s, ok := q[name]; ok {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f >= 0 {
			return f
		}
	}
	return fallback
}

// spin rotates the default-parameter counter.
func (a *App) spin() int64 { return a.rotor.Add(1) }

// defaultItem deterministically varies a fallback item id.
func (a *App) defaultItem() int { return int(a.spin()%int64(a.items)) + 1 }

// defaultCustomer deterministically varies a fallback customer id.
func (a *App) defaultCustomer() int { return int(a.spin()%int64(a.customers)) + 1 }

// errPage wraps a handler error with page context.
func errPage(page string, err error) error {
	return fmt.Errorf("tpcw %s: %w", page, err)
}
