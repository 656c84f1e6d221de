package workload

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/core"
	"stagedweb/internal/dbtier"
	"stagedweb/internal/sched"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/webtest"
)

func TestMain(m *testing.M) { webtest.Main(m) }

// startBookstore boots a staged server with a small TPC-W population.
func startBookstore(t *testing.T) (addr string, counts tpcw.Counts) {
	t.Helper()
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	webtest.NoOpenConns(t, db)
	if err := tpcw.CreateTables(db); err != nil {
		t.Fatal(err)
	}
	counts, err := tpcw.PopulateShard(db, tpcw.PopulateConfig{Items: 150, Customers: 40, Orders: 40}, nil)
	if err != nil {
		t.Fatal(err)
	}
	app := tpcw.NewApp(counts, nil)
	tier := dbtier.New(db, dbtier.Options{Conns: 6, Scale: clock.Timescale(1000)})
	t.Cleanup(tier.Close)
	srv, err := core.New(core.Config{
		App: app, DB: tier.Conn(),
		HeaderWorkers: 2, StaticWorkers: 2, GeneralWorkers: 4, LengthyWorkers: 2, RenderWorkers: 2,
		MinReserve: 1,
		Cutoff:     sched.DefaultCutoff,
		Scale:      clock.Timescale(1000),
	})
	if err != nil {
		t.Fatal(err)
	}
	l, addr, err := webtest.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(srv.Stop)
	return addr, counts
}

func TestGeneratorDrivesAllTraffic(t *testing.T) {
	addr, counts := startBookstore(t)
	g := New(Config{
		Addr:        addr,
		EBs:         8,
		Scale:       clock.Timescale(1000), // think times ~0.7-7ms
		Customers:   counts.Customers,
		Items:       counts.Items,
		FetchImages: true,
		Seed:        42,
	})
	g.Start()
	deadline := time.Now().Add(10 * time.Second)
	for g.Stats().TotalInteractions() < 100 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d interactions completed (errors=%d)",
				g.Stats().TotalInteractions(), g.Stats().Errors())
		}
		time.Sleep(5 * time.Millisecond)
	}
	g.Stop()

	if g.Stats().Errors() > g.Stats().TotalInteractions()/10 {
		t.Fatalf("too many errors: %d of %d", g.Stats().Errors(), g.Stats().TotalInteractions())
	}
	pages := g.Stats().Pages()
	if len(pages) < 5 {
		t.Fatalf("only %d distinct pages visited: %v", len(pages), pages)
	}
	for _, p := range pages {
		if p.Count > 0 && p.Mean <= 0 {
			t.Fatalf("page %s has count but zero mean", p.Page)
		}
	}
	// Home should dominate (29% of the mix).
	home := g.Stats().Page(tpcw.PageHome)
	if home.Count == 0 {
		t.Fatal("home page never visited")
	}
}

func TestStatsRecordingGate(t *testing.T) {
	s := newStats()
	s.record("/p", time.Second)
	s.SetRecording(false)
	s.record("/p", time.Second)
	s.recordError("/p")
	if got := s.Page("/p").Count; got != 1 {
		t.Fatalf("count = %d, want 1 (gated)", got)
	}
	if s.Errors() != 0 {
		t.Fatal("error recorded while gated")
	}
	s.SetRecording(true)
	s.Reset()
	if s.TotalInteractions() != 0 {
		t.Fatal("Reset did not clear")
	}
}

// TestStatsPageErrors pins per-page error attribution: failures count
// against the page that drove them and surface in every summary view,
// including for pages seen only through failures.
func TestStatsPageErrors(t *testing.T) {
	s := newStats()
	s.record("/home", time.Second)
	s.recordError("/home")
	s.recordError("/home")
	s.recordError("/best_sellers")
	if got := s.Errors(); got != 3 {
		t.Fatalf("Errors = %d, want 3", got)
	}
	if got := s.Page("/home"); got.Count != 1 || got.Errors != 2 {
		t.Fatalf("Page(/home) = %+v, want count 1 errors 2", got)
	}
	// A page with failures but no completions still appears.
	if got := s.Page("/best_sellers"); got.Count != 0 || got.Errors != 1 {
		t.Fatalf("Page(/best_sellers) = %+v, want count 0 errors 1", got)
	}
	pages := s.Pages()
	if len(pages) != 2 {
		t.Fatalf("Pages() = %v, want both pages", pages)
	}
	for _, p := range pages {
		if p.Page == "/best_sellers" && p.Errors != 1 {
			t.Fatalf("Pages() missed error-only page: %+v", p)
		}
	}
	s.Reset()
	if s.Page("/home").Errors != 0 || s.Errors() != 0 {
		t.Fatal("Reset did not clear errors")
	}
}

func TestExtractImages(t *testing.T) {
	html := []byte(`<img src="/img/a.gif"><img src="/img/b.gif"><img src="/img/a.gif"><img src="">`)
	imgs := extractImages(html, 10)
	if len(imgs) != 2 || imgs[0] != "/img/a.gif" || imgs[1] != "/img/b.gif" {
		t.Fatalf("imgs = %v", imgs)
	}
	if got := extractImages(html, 1); len(got) != 1 {
		t.Fatalf("cap not applied: %v", got)
	}
	if got := extractImages([]byte("no images here"), 5); len(got) != 0 {
		t.Fatalf("phantom images: %v", got)
	}
}

func TestExtractInt(t *testing.T) {
	body := []byte(`<a href="/customer_registration?sc_id=457">Checkout</a>`)
	if got := extractInt(body, "sc_id="); got != 457 {
		t.Fatalf("extractInt = %d, want 457", got)
	}
	if got := extractInt(body, "o_id="); got != 0 {
		t.Fatalf("missing marker = %d, want 0", got)
	}
	if got := extractInt([]byte("sc_id=x"), "sc_id="); got != 0 {
		t.Fatalf("non-numeric = %d, want 0", got)
	}
}

func TestBuildURLSessionCoherence(t *testing.T) {
	b := &browser{
		cfg: Config{Customers: 10, Items: 100, Mix: tpcw.NewMix(tpcw.BrowsingMix),
			Scale: clock.RealTime},
		rng: rand.New(rand.NewSource(7)),
		cID: 3,
	}
	url := b.buildURL(tpcw.PageHome)
	if !strings.Contains(url, "c_id=3") {
		t.Fatalf("home url %q missing customer", url)
	}
	b.scID = 99
	url = b.buildURL(tpcw.PageBuyRequest)
	if !strings.Contains(url, "sc_id=99") || !strings.Contains(url, "uname=user3") {
		t.Fatalf("buy request url %q", url)
	}
	// Cart id learned from a response body.
	b.updateSession(tpcw.PageShoppingCart, []byte("...?sc_id=123\">Checkout"))
	if b.scID != 123 {
		t.Fatalf("scID = %d, want 123", b.scID)
	}
	// Purchase clears the cart.
	b.updateSession(tpcw.PageBuyConfirm, nil)
	if b.scID != 0 {
		t.Fatalf("scID = %d after purchase, want 0", b.scID)
	}
}
