package harness

import (
	"fmt"
	"io"
	"strings"

	"stagedweb/internal/clock"
	"stagedweb/internal/metrics"
	"stagedweb/internal/variant"
)

// AsciiPlotScaled renders a series as a terminal plot: value on the y
// axis, series offset on the x axis, converted to paper time through the
// given timescale and compressed to the given width. It is the harness's
// stand-in for the paper's gnuplot figures.
func AsciiPlotScaled(title, yLabel string, s *metrics.Series, width, height int, scale clock.Timescale) string {
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 12
	}
	var pts []metrics.Point
	if s != nil {
		pts = s.Points()
	}
	var sb strings.Builder
	sb.WriteString(title + "\n")
	if len(pts) == 0 {
		sb.WriteString("(no data)\n")
		return sb.String()
	}

	// Compress to width columns by averaging.
	cols := make([]float64, width)
	if len(pts) < width {
		width = len(pts)
		cols = cols[:width]
	}
	per := float64(len(pts)) / float64(width)
	maxV := 0.0
	for c := 0; c < width; c++ {
		lo := int(float64(c) * per)
		hi := int(float64(c+1) * per)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > len(pts) {
			hi = len(pts)
		}
		sum := 0.0
		for _, p := range pts[lo:hi] {
			sum += p.Value
		}
		cols[c] = sum / float64(hi-lo)
		if cols[c] > maxV {
			maxV = cols[c]
		}
	}
	if maxV == 0 {
		maxV = 1
	}

	for row := height; row >= 1; row-- {
		threshold := maxV * float64(row) / float64(height)
		label := ""
		if row == height {
			label = fmt.Sprintf("%.0f", maxV)
		} else if row == 1 {
			label = "0"
		}
		fmt.Fprintf(&sb, "%8s |", label)
		for c := 0; c < width; c++ {
			if cols[c] >= threshold-maxV/float64(2*height) {
				sb.WriteByte('*')
			} else {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%8s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&sb, "%8s  0 .. %v (%s)\n", "",
		scale.Paper(pts[len(pts)-1].Offset+s.Width()), yLabel)
	return sb.String()
}

// Figure7 renders the baseline's dynamic-request queue length over time,
// selected from the run's series by probe name.
func Figure7(unmod *Result) string {
	return AsciiPlotScaled("Figure 7. Queue length for dynamic requests (unmodified server)",
		"paper time, queue length in requests", unmod.Series[variant.ProbeQueueSingle], 64, 12, unmod.Config.Scale)
}

// Figure8 renders the staged server's general and lengthy queue lengths.
func Figure8(mod *Result) string {
	return AsciiPlotScaled("Figure 8(a). General-pool queue length (modified server)",
		"paper time, queue length in requests", mod.Series[variant.ProbeQueueGeneral], 64, 10, mod.Config.Scale) +
		"\n" +
		AsciiPlotScaled("Figure 8(b). Lengthy-pool queue length (modified server)",
			"paper time, queue length in requests", mod.Series[variant.ProbeQueueLengthy], 64, 10, mod.Config.Scale)
}

// Figure9 renders total throughput per paper minute for both servers.
func Figure9(unmod, mod *Result) string {
	return AsciiPlotScaled("Figure 9. Throughput, all request types ("+unmod.Variant+" server)",
		"paper time, interactions per minute", unmod.Series[SeriesThroughputAll], 64, 10, unmod.Config.Scale) +
		"\n" +
		AsciiPlotScaled("Figure 9. Throughput, all request types ("+mod.Variant+" server)",
			"paper time, interactions per minute", mod.Series[SeriesThroughputAll], 64, 10, mod.Config.Scale)
}

// Figure10 renders the four per-class throughput panels for both servers.
func Figure10(unmod, mod *Result) string {
	panels := []struct {
		name   string
		series string
	}{
		{"(a) Static Requests", SeriesThroughputStatic},
		{"(b) All Dynamic Requests", SeriesThroughputDynamic},
		{"(c) Quick Dynamic Requests", SeriesThroughputQuick},
		{"(d) Lengthy Dynamic Requests", SeriesThroughputLengthy},
	}
	var sb strings.Builder
	for _, p := range panels {
		sb.WriteString(AsciiPlotScaled("Figure 10"+p.name+" ("+unmod.Variant+")",
			"paper time, interactions per minute", unmod.Series[p.series], 64, 8, unmod.Config.Scale))
		sb.WriteString(AsciiPlotScaled("Figure 10"+p.name+" ("+mod.Variant+")",
			"paper time, interactions per minute", mod.Series[p.series], 64, 8, mod.Config.Scale))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SeriesMax computes a series' maximum bucket value.
func SeriesMax(s *metrics.Series) float64 {
	if s == nil {
		return 0
	}
	maxV := 0.0
	for _, p := range s.Points() {
		if p.Value > maxV {
			maxV = p.Value
		}
	}
	return maxV
}

// WriteCSV emits a series as "offset_seconds,value" rows for external
// plotting (the gnuplot path the paper used).
func WriteCSV(w io.Writer, s *metrics.Series) error {
	if s == nil {
		_, err := io.WriteString(w, "offset_seconds,value\n")
		return err
	}
	if _, err := io.WriteString(w, "offset_seconds,value\n"); err != nil {
		return err
	}
	for _, p := range s.Points() {
		if _, err := fmt.Fprintf(w, "%.3f,%.3f\n", p.Offset.Seconds(), p.Value); err != nil {
			return err
		}
	}
	return nil
}
