package harness

import (
	"fmt"
	"strings"

	"stagedweb/internal/tpcw"
)

// Table3 renders the paper's Table 3: per-page mean web interaction
// response times (paper seconds) on the unmodified and modified servers.
func Table3(unmod, mod *Result) string {
	var sb strings.Builder
	sb.WriteString("Table 3. TPC-W pages and their average response times (seconds)\n")
	fmt.Fprintf(&sb, "%-36s %12s %12s %9s\n", "web page name", "unmodified", "modified", "speedup")
	sb.WriteString(strings.Repeat("-", 72) + "\n")
	for _, page := range tpcw.Pages {
		u := unmod.Pages[page]
		m := mod.Pages[page]
		speedup := "-"
		if m.MeanPaperSec > 0 {
			speedup = fmt.Sprintf("%8.1fx", u.MeanPaperSec/m.MeanPaperSec)
		}
		fmt.Fprintf(&sb, "%-36s %12.2f %12.2f %9s\n",
			tpcw.PageTitle(page), u.MeanPaperSec, m.MeanPaperSec, speedup)
	}
	return sb.String()
}

// Table4 renders the paper's Table 4: completed web interactions per page
// type during the measurement interval, with per-page client-side error
// counts, plus the overall throughput gain.
func Table4(unmod, mod *Result) string {
	var sb strings.Builder
	sb.WriteString("Table 4. Completed web interactions per page type\n")
	fmt.Fprintf(&sb, "%-36s %12s %8s %12s %8s\n",
		"web page name", "unmodified", "errors", "modified", "errors")
	sb.WriteString(strings.Repeat("-", 80) + "\n")
	for _, page := range tpcw.Pages {
		u, m := unmod.Pages[page], mod.Pages[page]
		fmt.Fprintf(&sb, "%-36s %12d %8d %12d %8d\n",
			tpcw.PageTitle(page), u.Count, u.Errors, m.Count, m.Errors)
	}
	sb.WriteString(strings.Repeat("-", 80) + "\n")
	fmt.Fprintf(&sb, "%-36s %12d %8d %12d %8d\n", "total",
		unmod.TotalInteractions, unmod.Errors, mod.TotalInteractions, mod.Errors)
	fmt.Fprintf(&sb, "overall throughput gain: %+.1f%% (paper: +31.3%%)\n",
		ThroughputGainPercent(unmod, mod))
	return sb.String()
}

// Table2 renders the reserve-controller trace in the paper's Table 2
// format from parallel t_spare/t_reserve samples.
func Table2(tspare, treserve []int) string {
	var sb strings.Builder
	sb.WriteString("Table 2. Changes to t_reserve over an example period\n")
	fmt.Fprintf(&sb, "%6s %8s %10s %12s\n", "time", "tspare", "treserve", "delta")
	sb.WriteString(strings.Repeat("-", 40) + "\n")
	for i := 0; i < len(tspare) && i < len(treserve); i++ {
		delta := 0
		if i+1 < len(treserve) {
			delta = treserve[i+1] - treserve[i]
		}
		fmt.Fprintf(&sb, "%5ds %8d %10d %+12d\n", i+1, tspare[i], treserve[i], delta)
	}
	return sb.String()
}
