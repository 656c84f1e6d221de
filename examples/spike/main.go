// Spike: a flash crowd expressed through the load-profile registry.
//
// The offered load is data, not code: the "spike" profile holds a base
// population of emulated browsers and injects a burst of extra EBs for
// a window mid-run, all configured through the same key=value settings
// surface the server variants use. The harness runs the baseline and
// staged servers through the identical crowd and samples the client.*
// probe series (active EBs, per-second WIRT) next to the server's
// queue.*/sched.* series — so the plots below show the controller's
// t_reserve rising with the crowd while the staged server's quick-page
// WIRT stays flat, with zero bespoke workload code.
//
// Run: go run ./examples/spike
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/harness"
	"stagedweb/internal/variant"
	"stagedweb/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spike:", err)
		os.Exit(1)
	}
}

func run() error {
	base := harness.QuickConfig("", clock.Timescale(200))
	base.EBs = 40 // base population; the profile scales from it
	base.RampUp = 20 * time.Second
	base.Measure = 3 * time.Minute
	base.CoolDown = 10 * time.Second

	// The crowd: triple the population for 45 paper-seconds, one minute
	// into the run.
	crowd := harness.LoadSpec{Profile: workload.Spike, Set: variant.Settings{
		"burst": "80",
		"at":    "1m",
		"width": "45s",
	}}
	scenarios := harness.Matrix(base,
		[]string{variant.Unmodified, variant.Modified},
		[]harness.LoadSpec{crowd})

	fmt.Println("driving a flash crowd through both servers...")
	sw, err := harness.Sweep(context.Background(), scenarios)
	if err != nil {
		return err
	}

	for _, sc := range scenarios {
		res := sw.Result(sc.Name)
		fmt.Printf("\n== %s: %d interactions, %d errors ==\n",
			sc.Name, res.TotalInteractions, res.Errors)
		fmt.Print(harness.AsciiPlot("active EBs (client.active)", "EBs",
			res.Series[workload.ProbeActive], 64, 8))
		fmt.Print(harness.AsciiPlot("per-second client WIRT (client.wirt)", "paper-s",
			res.Series[workload.ProbeWIRT], 64, 8))
		if s := res.Series[variant.ProbeReserve]; s != nil {
			fmt.Print(harness.AsciiPlot("t_reserve (sched.reserve)", "workers", s, 64, 8))
		}
	}
	fmt.Println()
	fmt.Print(sw.Report())
	return nil
}
