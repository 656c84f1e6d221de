// Command poolserv serves the TPC-W bookstore with any server variant.
// It is the interactive face of the reproduction: start it, point a
// browser or cmd/tpcwload at it, and watch the queue and scheduling
// state. It serves the system harness.Boot builds, as the experiments do.
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
//	poolserv -mode modified -set shards=2 -set indexes=on   # balancer, 2 shards
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
	"stagedweb/internal/harness"
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

// run serves until SIGINT or SIGTERM, or until serving fails.
func run(args []string) error {
	sys, _, err := boot(args)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		fmt.Println("\nshutting down")
	case <-sys.Done():
	}
	return sys.Stop()
}

// boot parses args and starts the system they describe through
// harness.Boot, and the stats printer when -stats asks for it. It
// returns the system and the address it serves.
func boot(args []string) (*harness.System, string, error) {
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
	fs.Var(&sets, "set", "variant setting `key=value` (repeatable), e.g. -set minreserve=15 -set shards=2")
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return nil, "", err
	}
	fmt.Printf("populating %d items, %d customers, %d orders...\n", *items, *customers, *orders)
	sys, err := harness.Boot(harness.Config{
		Variant:  *mode,
		Scale:    clock.Timescale(*scale),
		Populate: tpcw.PopulateConfig{Items: *items, Customers: *customers, Orders: *orders},
		Cost:     sqldb.DefaultCostModel(),
		Work:     server.DefaultWorkCost(),
		Set:      sets.Settings,
	}, l, nil)
	if err != nil {
		return nil, "", err
	}
	fmt.Printf("%s server on http://%s (try /home, /best_sellers?subject=ARTS)\n", *mode, l.Addr())
	if *statsEach > 0 {
		startStats(sys, *statsEach)
	}
	return sys, l.Addr().String(), nil
}

// startStats launches the periodic stats printer — one loop for every
// variant, built on the uniform Instance surface: graph stage stats plus
// every probe gauge. It ends when the system stops serving, so the
// goroutine and timer never outlive the server.
func startStats(sys *harness.System, every time.Duration) {
	// Stats cadence is operator-facing wall time: a human watching a
	// terminal wants a line every N real seconds regardless of timescale.
	stop := clock.Every(clock.Real{}, every, func(time.Time) bool {
		for _, st := range sys.Instance.Graph().Stats() {
			fmt.Printf("  %s\n", st)
		}
		var sb strings.Builder
		for i, p := range sys.Instance.Probes() {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%s=%.0f", p.Name, p.Gauge())
		}
		fmt.Println(sb.String())
		return true
	})
	go func() {
		<-sys.Done()
		stop()
	}()
}
