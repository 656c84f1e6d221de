// Package workload implements the TPC-W remote browser emulator (RBE):
// emulated browsers (EBs) that walk the bookstore according to a page
// mix, wait a think time of 0.7–7 s (paper time) between interactions,
// fetch the images embedded in each page, and measure the web
// interaction response time (WIRT) at the client side — exactly how the
// paper's evaluation measures Table 3.
//
// The offered load is a value: a Profile builds a Generator from an Env
// (the fleet's Config plus generic key=value settings), and a fixed
// table in profile.go maps the names steady, spike and open-loop to
// profiles, as internal/variant does for servers. A Generator's fleet is dynamic: a population schedule re-targets the
// closed-loop fleet once per paper second, or a Poisson arrival process
// starts self-retiring sessions. Offered-load telemetry (active EBs,
// interactions begun, failures, recent WIRT) is exported ungated as the
// client.* probes the harness samples next to the server's series.
package workload

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/httpwire"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
)

// Config configures the browser fleet.
type Config struct {
	// Addr is the server address ("127.0.0.1:port").
	Addr string
	// EBs is the initial closed-loop population (the paper uses 400).
	// Zero starts an empty fleet — open-loop profiles add sessions via
	// SpawnSession; SetTarget adjusts the population later either way.
	// In a profile's Env it is the steady and spike profiles' base
	// population, 100 when zero.
	EBs int
	// Mix is the page distribution; nil selects the browsing mix.
	Mix *tpcw.Mix
	// Scale compresses think times and reported response times.
	Scale clock.Timescale
	// Clock paces think times, session lifetimes, and WIRT measurement.
	// Nil means clock.Real; tests inject clock.Manual for deterministic
	// fleets and the harness injects its experiment clock.
	Clock clock.Clock
	// ThinkExponential selects the TPC-W specification's think-time
	// distribution: negative-exponential with mean thinkMean (7 s),
	// truncated below at thinkMin (0.7 s) and capped at ten times the
	// mean. The default (false) draws uniformly from [thinkMin,
	// thinkMax] — the paper's literal "0.7 to 7 seconds".
	ThinkExponential bool
	// Customers and Items are the population bounds for generated
	// request parameters.
	Customers, Items int
	// FetchImages controls whether EBs download images referenced by
	// each page (TPC-W includes them in the interaction), at most
	// maxImages a page.
	FetchImages bool
	// Seed makes the fleet deterministic.
	Seed int64
}

// The browser's fixed settings, in paper time where durations: the
// TPC-W think-time bounds and exponential mean, the cap on embedded
// images fetched per page, and the connection-establishment bound (it
// is scaled to wall time like think times, so a compressed run does not
// wait 1000 paper-seconds on a dead server).
const (
	thinkMin    = 700 * time.Millisecond
	thinkMax    = 7 * time.Second
	thinkMean   = 7 * time.Second
	maxImages   = 6
	dialTimeout = 10 * time.Second
)

func (c *Config) fillDefaults() {
	if c.EBs < 0 {
		c.EBs = 0
	}
	if c.Mix == nil {
		c.Mix = tpcw.NewMix(tpcw.BrowsingMix)
	}
	if c.Scale == 0 {
		c.Scale = clock.RealTime
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.Customers <= 0 {
		c.Customers = 1
	}
	if c.Items <= 0 {
		c.Items = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// telemetry is the ungated offered-load instrumentation shared by every
// EB: unlike Stats it is not gated to the measurement window, because
// the client.* series it feeds are anchored there already (observations
// before the window drop on the series side).
type telemetry struct {
	active  atomic.Int64 // live EBs (fleet + sessions)
	offered atomic.Int64 // interactions begun
	failed  atomic.Int64 // interactions failed
	wirtNS  atomic.Int64 // summed WIRT of completed interactions
	wirtN   atomic.Int64 // completed interactions
}

// Generator runs the EB fleet, plus an optional population schedule
// or open-loop arrival process.
type Generator struct {
	cfg   Config
	stats *Stats
	tele  telemetry
	stop  chan struct{}
	wg    sync.WaitGroup

	// schedule maps paper time since Start to a target closed-loop
	// population; it is evaluated once per paper second. Nil leaves the
	// fleet fixed.
	schedule func(time.Duration) int
	// arrive, when set, is a Poisson session arrival process (schedule
	// must be nil).
	arrive *arrivals
	// halt, set by Start, ends the schedule's loop or waits for the
	// arrival process to exit; nil when neither runs.
	halt func()

	mu     sync.Mutex
	fleet  []chan struct{} // per-EB retire channels, in spawn order
	nextID int64
}

// New builds an unstarted generator.
func New(cfg Config) *Generator {
	cfg.fillDefaults()
	return &Generator{cfg: cfg, stats: newStats(), stop: make(chan struct{})}
}

// Stats exposes the client-side measurements.
func (g *Generator) Stats() *Stats { return g.stats }

// Start launches the initial EB fleet and the population schedule or
// arrival process. It does not block.
func (g *Generator) Start() {
	g.SetTarget(g.cfg.EBs)
	clk, scale := g.cfg.Clock, g.cfg.Scale
	switch {
	case g.schedule != nil:
		// Pace on the injected clock: under clock.Manual the schedule
		// re-targets exactly when the test advances time, and under a
		// dilated experiment clock paper seconds stay paper seconds.
		// (This controller once used time.Now/time.Since here and
		// silently ran manual-clock fleets on the wall timeline —
		// the bug the wallclock check now prevents.)
		start := clk.Now()
		g.halt = clock.Every(clk, scale.Wall(time.Second), func(time.Time) bool {
			g.SetTarget(g.schedule(scale.Paper(clk.Since(start))))
			return true
		})
	case g.arrive != nil:
		done := make(chan struct{})
		go g.runArrivals(done)
		g.halt = func() { <-done }
	}
}

// runArrivals runs the arrival process until Stop, then closes done.
func (g *Generator) runArrivals(done chan struct{}) {
	defer close(done)
	clk, scale, a := g.cfg.Clock, g.cfg.Scale, g.arrive
	for {
		gap := time.Duration(a.rng.ExpFloat64() / a.rate * float64(time.Second))
		select {
		case <-g.stop:
			return
		case <-clk.After(scale.Wall(gap)):
		}
		g.SpawnSession(time.Duration(a.rng.ExpFloat64() * float64(a.session)))
	}
}

// SetTarget grows or shrinks the closed-loop fleet toward n browsers.
// Growth spawns fresh EBs, each deterministically seeded; shrinkage
// retires the most recently spawned EBs after their in-flight
// interaction. Sessions started by SpawnSession retire themselves and
// do not count against the target.
func (g *Generator) SetTarget(n int) {
	if n < 0 {
		n = 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.fleet) < n {
		quit := make(chan struct{})
		g.fleet = append(g.fleet, quit)
		g.launch(quit)
	}
	for len(g.fleet) > n {
		last := len(g.fleet) - 1
		close(g.fleet[last])
		g.fleet = g.fleet[:last]
	}
}

// SpawnSession starts one browser that retires itself after lifetime
// (paper time) — the open-loop arrival primitive: sessions arrive on an
// external process's clock and leave regardless of server speed.
func (g *Generator) SpawnSession(lifetime time.Duration) {
	quit := make(chan struct{})
	go func() {
		g.cfg.Clock.Sleep(g.cfg.Scale.Wall(lifetime))
		close(quit)
	}()
	g.mu.Lock()
	g.launch(quit)
	g.mu.Unlock()
}

// launch starts one EB goroutine. Callers hold g.mu.
func (g *Generator) launch(quit chan struct{}) {
	id := g.nextID
	g.nextID++
	eb := &browser{
		cfg:   g.cfg,
		stats: g.stats,
		tele:  &g.tele,
		stop:  g.stop,
		quit:  quit,
		rng:   rand.New(rand.NewSource(g.cfg.Seed + id*7919)),
		cID:   int(id)%g.cfg.Customers + 1,
	}
	g.wg.Add(1)
	g.tele.active.Add(1)
	go func() {
		defer g.wg.Done()
		defer g.tele.active.Add(-1)
		eb.run()
	}()
}

// Stop signals every EB, ends the schedule or arrival process and waits
// for it to exit — so no EB is launched while the fleet is awaited — and
// then for every EB to finish its in-flight interaction. Call once, after
// Start.
func (g *Generator) Stop() {
	close(g.stop)
	if g.halt != nil {
		g.halt()
	}
	g.wg.Wait()
}

// Probes lists the four client.* gauges. The offered and WIRT gauges
// are stateful: each reading covers the interactions since the previous
// one, so sampled once per paper second they read as per-second rates.
func (g *Generator) Probes() []variant.Probe {
	var mu sync.Mutex
	var lastOffered, lastNS, lastN int64
	return []variant.Probe{
		{Name: ProbeActive, Gauge: func() float64 { return float64(g.tele.active.Load()) }},
		{Name: ProbeOffered, Gauge: func() float64 {
			mu.Lock()
			defer mu.Unlock()
			cur := g.tele.offered.Load()
			d := cur - lastOffered
			lastOffered = cur
			return float64(d)
		}},
		{Name: ProbeErrors, Gauge: func() float64 { return float64(g.tele.failed.Load()) }},
		{Name: ProbeWIRT, Gauge: func() float64 {
			mu.Lock()
			defer mu.Unlock()
			ns, n := g.tele.wirtNS.Load(), g.tele.wirtN.Load()
			dNS, dN := ns-lastNS, n-lastN
			lastNS, lastN = ns, n
			if dN == 0 {
				return 0
			}
			return g.cfg.Scale.PaperSeconds(time.Duration(dNS / dN))
		}},
	}
}

// browser is one emulated browser with its session state.
type browser struct {
	cfg   Config
	stats *Stats
	tele  *telemetry
	stop  chan struct{}
	quit  chan struct{}
	rng   *rand.Rand

	cID  int // this EB's customer identity
	scID int // current shopping cart, 0 if none
}

func (b *browser) run() {
	for {
		select {
		case <-b.stop:
			return
		case <-b.quit:
			return
		default:
		}
		page := b.cfg.Mix.Pick(b.rng)
		b.interact(page)
		b.think()
	}
}

// thinkDuration draws one think time (paper time) from the configured
// distribution.
func (b *browser) thinkDuration() time.Duration {
	if b.cfg.ThinkExponential {
		// TPC-W clause 5.3.2.2: negative-exponential think time,
		// truncated below at thinkMin and capped at ten times the mean.
		d := time.Duration(b.rng.ExpFloat64() * float64(thinkMean))
		return min(max(d, thinkMin), 10*thinkMean)
	}
	return thinkMin + time.Duration(b.rng.Int63n(int64(thinkMax-thinkMin)+1))
}

// think sleeps the drawn think time scaled, interruptibly.
func (b *browser) think() {
	wall := b.cfg.Scale.Wall(b.thinkDuration())
	select {
	case <-b.stop:
	case <-b.quit:
	case <-b.cfg.Clock.After(wall):
	}
}

// fail records one failed interaction against the page that drove it.
func (b *browser) fail(page string) {
	b.tele.failed.Add(1)
	b.stats.recordError(page)
}

// interact performs one web interaction: the page plus its embedded
// images, all on one keep-alive connection (as a browser would), measured
// as one WIRT. The connection closes at the end of the interaction so the
// server does not hold resources across the think time.
func (b *browser) interact(page string) {
	b.tele.offered.Add(1)
	url := b.buildURL(page)
	start := b.cfg.Clock.Now()
	conn, err := net.DialTimeout("tcp", b.cfg.Addr, b.cfg.Scale.Wall(dialTimeout))
	if err != nil {
		b.fail(page)
		return
	}
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)

	body, status, err := get(conn, br, url)
	if err != nil {
		b.fail(page)
		return
	}
	if b.cfg.FetchImages {
		for _, img := range extractImages(body, maxImages) {
			if _, _, err := get(conn, br, img); err != nil {
				// Image failures charge the parent page: the EB asked
				// for one interaction, not a raw image URL.
				b.fail(page)
				return
			}
		}
	}
	wirt := b.cfg.Clock.Since(start)
	if status >= 200 && status < 400 {
		b.tele.wirtNS.Add(int64(wirt))
		b.tele.wirtN.Add(1)
		b.stats.record(page, wirt)
		b.updateSession(page, body)
	} else {
		b.fail(page)
	}
}

// get fetches one URL over an established keep-alive connection.
func get(conn net.Conn, br *bufio.Reader, path string) ([]byte, int, error) {
	req := "GET " + path + " HTTP/1.1\r\nHost: tpcw\r\nUser-Agent: tpcw-eb\r\nConnection: keep-alive\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		return nil, 0, err
	}
	resp, err := httpwire.ReadResponse(br, nil, "")
	if err != nil {
		return nil, 0, err
	}
	return resp.Body(), resp.Status, nil
}

// searchWords are the terms EBs search for; common title words so
// searches return results.
var searchWords = []string{
	"THE", "SECRET", "LOST", "GOLDEN", "RIVER", "CITY", "HISTORY",
	"SCIENCE", "JOURNEY", "NIGHT", "GUIDE", "WORLD",
}

// buildURL assembles the query parameters each interaction needs,
// maintaining light session coherence (customer identity, cart id).
func (b *browser) buildURL(page string) string {
	q := map[string]string{}
	switch page {
	case tpcw.PageHome:
		q["c_id"] = itoa(b.cID)
	case tpcw.PageProductDetail:
		q["i_id"] = itoa(1 + b.rng.Intn(b.cfg.Items))
	case tpcw.PageNewProducts, tpcw.PageBestSellers:
		q["subject"] = tpcw.Subjects[b.rng.Intn(len(tpcw.Subjects))]
	case tpcw.PageExecuteSearch:
		q["field"] = []string{"title", "author", "subject"}[b.rng.Intn(3)]
		if q["field"] == "subject" {
			q["terms"] = tpcw.Subjects[b.rng.Intn(len(tpcw.Subjects))]
		} else {
			q["terms"] = searchWords[b.rng.Intn(len(searchWords))]
		}
	case tpcw.PageShoppingCart:
		q["i_id"] = itoa(1 + b.rng.Intn(b.cfg.Items))
		q["qty"] = itoa(1 + b.rng.Intn(3))
		// The customer id rides along on every cart-flow page so a sharded
		// cluster can pin the whole checkout (cart rows included) to the
		// customer's shard — carts are per-shard local state.
		q["c_id"] = itoa(b.cID)
		if b.scID > 0 {
			q["sc_id"] = itoa(b.scID)
		}
	case tpcw.PageCustomerReg, tpcw.PageBuyRequest:
		q["c_id"] = itoa(b.cID)
		if b.scID > 0 {
			q["sc_id"] = itoa(b.scID)
		}
		if page == tpcw.PageBuyRequest {
			q["uname"] = tpcw.Uname(b.cID)
			q["passwd"] = "pw" + itoa(b.cID)
		}
	case tpcw.PageBuyConfirm:
		if b.scID > 0 {
			q["sc_id"] = itoa(b.scID)
		}
		q["c_id"] = itoa(b.cID)
	case tpcw.PageOrderDisplay:
		q["uname"] = tpcw.Uname(b.cID)
		q["passwd"] = "pw" + itoa(b.cID)
	case tpcw.PageAdminRequest, tpcw.PageAdminResponse:
		q["i_id"] = itoa(1 + b.rng.Intn(b.cfg.Items))
		if page == tpcw.PageAdminResponse {
			q["cost"] = fmt.Sprintf("%d.99", 1+b.rng.Intn(99))
		}
	}
	if len(q) == 0 {
		return page
	}
	return page + "?" + httpwire.EncodeQuery(q)
}

// updateSession extracts the shopping cart id from cart-bearing pages and
// clears it after purchase.
func (b *browser) updateSession(page string, body []byte) {
	switch page {
	case tpcw.PageShoppingCart:
		if id := extractInt(body, "sc_id="); id > 0 {
			b.scID = id
		}
	case tpcw.PageBuyConfirm:
		b.scID = 0
	}
}

// extractImages finds image references (src="...") in an HTML body.
func extractImages(body []byte, maxImages int) []string {
	const marker = `src="`
	var out []string
	seen := map[string]bool{}
	s := string(body)
	for len(out) < maxImages {
		i := strings.Index(s, marker)
		if i < 0 {
			break
		}
		s = s[i+len(marker):]
		j := strings.IndexByte(s, '"')
		if j < 0 {
			break
		}
		img := s[:j]
		s = s[j:]
		if img == "" || seen[img] {
			continue
		}
		seen[img] = true
		out = append(out, img)
	}
	return out
}

// extractInt finds the first "<marker><digits>" occurrence in body.
func extractInt(body []byte, marker string) int {
	s := string(body)
	i := strings.Index(s, marker)
	if i < 0 {
		return 0
	}
	s = s[i+len(marker):]
	n := 0
	found := false
	for k := 0; k < len(s) && s[k] >= '0' && s[k] <= '9'; k++ {
		n = n*10 + int(s[k]-'0')
		found = true
	}
	if !found {
		return 0
	}
	return n
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }
