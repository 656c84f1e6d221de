// Command tpcwload drives a TPC-W workload against a running poolserv
// instance and reports client-side response times. The offered load is
// a load profile (steady, spike, open-loop) configured through generic
// -load-set key=value settings, and the page mix is selectable — the
// same profile table the experiment harness uses.
//
// Usage:
//
//	tpcwload -addr 127.0.0.1:8080 -ebs 400 -duration 5m -scale 1
//	tpcwload -duration 5m -load spike -load-set burst=300 -load-set at=2m -load-set width=1m
//	tpcwload -load open-loop -load-set rate=5 -mix shopping
//
// Profile schedules are paper time from load start, so size -duration
// to cover them (the default 1m run ends before spike's default at=1m
// burst).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
	"stagedweb/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tpcwload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tpcwload", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "server address")
		ebs       = fs.Int("ebs", 100, "base emulated-browser population")
		loadProf  = fs.String("load", workload.Steady, "load profile ("+strings.Join(workload.Names(), ", ")+")")
		mixName   = fs.String("mix", "", "TPC-W page mix: "+strings.Join(tpcw.MixNames(), ", ")+" (empty = browsing)")
		duration  = fs.Duration("duration", time.Minute, "run duration (paper time)")
		scale     = fs.Float64("scale", 1, "timescale (match the server's)")
		items     = fs.Int("items", 10000, "item id range")
		customers = fs.Int("customers", 2880, "customer id range")
		images    = fs.Bool("images", true, "fetch embedded images")
		seed      = fs.Int64("seed", 1, "rng seed")
		loadSets  variant.SettingsFlag
	)
	fs.Var(&loadSets, "load-set", "load-profile setting `key=value` (repeatable), e.g. -load-set burst=300")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, ok := workload.Lookup(*loadProf)
	if !ok {
		return fmt.Errorf("unknown load profile %q (have: %s)",
			*loadProf, strings.Join(workload.Names(), ", "))
	}
	mix, err := tpcw.MixByName(*mixName)
	if err != nil {
		return err
	}
	ts := clock.Timescale(*scale)
	gen, err := p.Build(workload.Env{
		Config: workload.Config{
			Addr:        *addr,
			EBs:         *ebs,
			Scale:       ts,
			Mix:         mix,
			Customers:   *customers,
			Items:       *items,
			FetchImages: *images,
			Seed:        *seed,
		},
		Set: loadSets.Settings,
	})
	if err != nil {
		return err
	}
	fmt.Printf("driving %s load against %s for %v (paper time)...\n", *loadProf, *addr, *duration)
	gen.Start()
	time.Sleep(ts.Wall(*duration))
	gen.Stop()

	stats := gen.Stats()
	fmt.Printf("\n%-28s %8s %8s %12s %12s %12s\n", "page", "count", "errors", "mean (s)", "p90 (s)", "max (s)")
	for _, p := range stats.Pages() {
		fmt.Printf("%-28s %8d %8d %12.3f %12.3f %12.3f\n",
			p.Page, p.Count, p.Errors,
			ts.PaperSeconds(p.Mean), ts.PaperSeconds(p.P90), ts.PaperSeconds(p.Max))
	}
	fmt.Printf("\ntotal interactions: %d, errors: %d\n",
		stats.TotalInteractions(), stats.Errors())
	return nil
}
