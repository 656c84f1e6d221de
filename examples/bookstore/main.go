// Bookstore: the full TPC-W online bookstore (the paper's evaluation
// application) served by the staged server and exercised by a short
// browsing-mix workload, printing client-side response times per page —
// a miniature of the paper's Table 3 measurement.
//
// Run: go run ./examples/bookstore
package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/core"
	"stagedweb/internal/dbtier"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/webtest"
	"stagedweb/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bookstore:", err)
		os.Exit(1)
	}
}

func run() error {
	scale := clock.Timescale(100) // 1 paper-second = 10 ms

	// Database with the paper's latency model; the per-row scan cost is
	// raised to keep the slow-page class above the 2 s cutoff at this
	// reduced population (2000 rows x 1.5 ms = 3 s scans).
	cost := sqldb.DefaultCostModel()
	cost.PerRowScanned = 1500 * time.Microsecond
	db := sqldb.Open(sqldb.Options{
		Clock:     clock.Precise{},
		Timescale: scale,
		Cost:      &cost,
	})
	if err := tpcw.CreateTables(db); err != nil {
		return err
	}
	fmt.Println("populating the bookstore...")
	counts, err := tpcw.Populate(db, tpcw.PopulateConfig{
		Items: 2000, Customers: 500, Orders: 400,
	})
	if err != nil {
		return err
	}
	fmt.Printf("  %d items, %d customers, %d orders, %d order lines\n",
		counts.Items, counts.Customers, counts.Orders, counts.OrderLines)

	app := tpcw.NewApp(counts, nil)
	tier := dbtier.New(db, dbtier.Options{Conns: 16 + 4, Clock: clock.Precise{}, Scale: scale})
	defer tier.Close()
	srv, err := core.New(core.Config{
		App: app, DB: tier.Conn(),
		HeaderWorkers: 8, StaticWorkers: 16, GeneralWorkers: 16, LengthyWorkers: 4, RenderWorkers: 16,
		MinReserve: 4,
		Scale:      scale,
		Clock:      clock.Precise{},
		Cost:       server.DefaultWorkCost(),
	})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Stop()
	addr := l.Addr().String()

	// Visit one page by hand, so the output shows real HTML.
	resp, err := webtest.Get(addr, tpcw.PageProductDetail+"?i_id=42")
	if err != nil {
		return err
	}
	fmt.Printf("\nGET /product_detail?i_id=42 -> %d (%d bytes)\n", resp.Status, len(resp.Body))

	// Drive two paper-minutes of browsing mix with 40 browsers.
	fmt.Println("\ndriving 40 emulated browsers for 2 paper-minutes...")
	gen := workload.New(workload.Config{
		Addr: addr, EBs: 40, Scale: scale,
		Customers: counts.Customers, Items: counts.Items,
		FetchImages: true, Seed: 7,
	})
	gen.Start()
	time.Sleep(scale.Wall(2 * time.Minute)) //lint:allow wallclock(example runs in real time for a human audience)
	gen.Stop()

	fmt.Printf("\n%-26s %7s %10s\n", "page", "count", "mean (s)")
	for _, p := range gen.Stats().Pages() {
		fmt.Printf("%-26s %7d %10.3f\n", p.Page, p.Count, scale.PaperSeconds(p.Mean))
	}
	fmt.Printf("\nlengthy pages learned by the classifier (cutoff %v):\n",
		srv.Classifier().Cutoff())
	for _, ps := range srv.Classifier().Snapshot() {
		if ps.Mean > srv.Classifier().Cutoff() {
			fmt.Printf("  %-26s mean data-gen %.2fs over %d requests\n",
				ps.Key, ps.Mean.Seconds(), ps.Count)
		}
	}
	fmt.Printf("\ntotal: %d interactions, %d errors, t_reserve=%d\n",
		gen.Stats().TotalInteractions(), gen.Stats().Errors(), srv.Reserve())
	return nil
}
