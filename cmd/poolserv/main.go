// Command poolserv serves the TPC-W bookstore with any server variant.
// It is the interactive face of the reproduction: start it, point a
// browser or cmd/tpcwload at it, and watch the queue and scheduling
// state.
//
// -mode names a variant (modified, unmodified, modified-noreserve), and
// variant knobs are generic -set key=value overrides — unknown keys are
// startup errors, so typos do not pass silently:
//
//	poolserv -mode modified   -addr :8080
//	poolserv -mode unmodified -addr :8080 -set workers=80
//	poolserv -mode modified -items 10000 -scale 100 -stats 2s
//	poolserv -mode modified-noreserve          # t_reserve ablated
//	poolserv -mode modified -set minreserve=15 -set cutoff=3s
//	poolserv -mode modified -set general=32 -set lengthy=8
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "poolserv:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("poolserv", flag.ContinueOnError)
	var (
		mode      = fs.String("mode", variant.Modified, "server variant ("+strings.Join(variant.Names(), ", ")+")")
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address")
		items     = fs.Int("items", 10000, "item population")
		customers = fs.Int("customers", 2880, "customer population")
		orders    = fs.Int("orders", 2592, "order population")
		scale     = fs.Float64("scale", 1, "timescale (1 = real time)")
		statsEach = fs.Duration("stats", 0, "print server stats every interval (0 = off)")
		sets      variant.SettingsFlag
	)
	fs.Var(&sets, "set", "variant setting `key=value` (repeatable), e.g. -set minreserve=15 -set cutoff=3s")
	if err := fs.Parse(args); err != nil {
		return err
	}

	v, ok := variant.Lookup(*mode)
	if !ok {
		return fmt.Errorf("unknown mode %q (have: %s)", *mode, strings.Join(variant.Names(), ", "))
	}

	ts := clock.Timescale(*scale)
	// Cost charges sleep on clock.Precise, as in the harness: clock.Real
	// over-sleeps sub-millisecond charges several-fold.
	db := sqldb.Open(sqldb.Options{Clock: clock.Precise{}, Timescale: ts})
	if err := tpcw.CreateTables(db); err != nil {
		return err
	}
	fmt.Printf("populating %d items, %d customers, %d orders...\n", *items, *customers, *orders)
	counts, err := tpcw.Populate(db, tpcw.PopulateConfig{
		Items: *items, Customers: *customers, Orders: *orders,
	})
	if err != nil {
		return err
	}
	app := tpcw.NewApp(counts, nil)

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	inst, err := v.Build(variant.Env{
		App:   app,
		DB:    db,
		Clock: clock.Precise{},
		Scale: ts,
		Cost:  server.DefaultWorkCost(),
		Set:   sets.Settings,
	})
	if err != nil {
		_ = l.Close()
		return err
	}
	defer inst.Stop()
	fmt.Printf("%s server on http://%s (try /home, /best_sellers?subject=ARTS)\n", *mode, l.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- inst.Serve(l) }()

	if *statsEach > 0 {
		stopStats := startStats(inst, *statsEach)
		defer stopStats()
	}

	select {
	case <-stop:
		fmt.Println("\nshutting down")
		return nil
	case err := <-serveErr:
		return err
	}
}

// startStats launches the periodic stats printer — one loop for every
// variant, built on the uniform Instance surface: graph stage stats plus
// every probe gauge. The ticker is stopped when the returned function
// runs, so the goroutine and timer never outlive the server.
func startStats(inst variant.Instance, every time.Duration) (stop func()) {
	// Stats cadence is operator-facing wall time: a human watching a
	// terminal wants a line every N real seconds regardless of timescale.
	tk := time.NewTicker(every)
	done := make(chan struct{})
	go func() {
		defer tk.Stop()
		for {
			select {
			case <-done:
				return
			case <-tk.C:
				for _, st := range inst.Graph().Stats() {
					fmt.Printf("  %s\n", st)
				}
				var sb strings.Builder
				for i, p := range inst.Probes() {
					if i > 0 {
						sb.WriteByte(' ')
					}
					fmt.Fprintf(&sb, "%s=%.0f", p.Name, p.Gauge())
				}
				fmt.Println(sb.String())
			}
		}
	}()
	return func() { close(done) }
}
