package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"stagedweb/internal/stage"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
)

// sloPaper is the TPC-W web-interaction response-time constraint.
const sloPaper = 3 * time.Second

// sampleEvery is how often the window loop reads the sampled gauges.
const sampleEvery = 100 * time.Millisecond

// procSnap is the process-wide accounting read at each window edge.
type procSnap struct {
	at      int64 // ns since the driver epoch
	mallocs uint64
	bytes   uint64
	cpu     time.Duration // getrusage user+sys
	gcCPU   float64       // seconds
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's high-water RSS (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// liveHeapMB forces a collection and reads what is still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func snapProc(at int64) procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	s := procSnap{at: at, mallocs: ms.Mallocs, bytes: ms.TotalAlloc, cpu: cpuTime()}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gc[0].Value.Float64()
	}
	return s
}

// sysSnap is the system under test's counters at one window edge.
type sysSnap struct {
	probes    map[string]float64
	completed int64 // stage completions, every stage of every instance
	shed      int64
	maxDepth  map[string]int // stage name -> high-water mark (max over shards)
}

func (s *system) graphs() []*stage.Graph {
	var gs []*stage.Graph
	if s.bal != nil {
		gs = append(gs, s.bal.Graph())
	}
	for _, inst := range s.insts {
		gs = append(gs, inst.Graph())
	}
	return gs
}

func (s *system) snap() sysSnap {
	out := sysSnap{probes: map[string]float64{}, maxDepth: map[string]int{}}
	for name, g := range s.probes() {
		out.probes[name] = g()
	}
	for _, g := range s.graphs() {
		for _, st := range g.Stats() {
			out.completed += st.Completed
			out.shed += st.Shed
			if st.MaxDepth > out.maxDepth[st.Name] {
				out.maxDepth[st.Name] = st.MaxDepth
			}
		}
	}
	return out
}

// passOpts selects what one pass builds and observes.
type passOpts struct {
	variant string  // empty = modified
	tracer  *tracer // nil = untraced
}

// pass is one measured window over one freshly built system.
type pass struct {
	w        workload
	seconds  int
	from, to int64 // window edges, ns since the driver epoch
	setup    time.Duration

	reqs  []sample     // requests completed inside the window
	nOK   int          // how many of them were verified
	wirts []wirtSample // interactions completed inside the window
	p0    procSnap
	p1    procSnap
	s0    sysSnap
	s1    sysSnap

	reserveMean float64 // sampled sched.reserve
	replLagMax  float64 // sampled db.repllag
	waitP99     time.Duration
	peakRSS     float64 // MB, when the window closed
	liveHeap    float64 // MB reachable after a forced GC, system still up
	failure     string
	sys         *system // stopped; its databases stay readable for the ledger
	scripts     []*script
}

// runPass builds the system, drives warm-up, measures the window, and
// tears everything down.
func runPass(w workload, seed int64, seconds int, o passOpts) (*pass, error) {
	b := buildOpts{variant: o.variant}
	if o.tracer != nil {
		b.wrapApp = o.tracer.wrapApp
		b.onComplete = o.tracer.onComplete
	}
	runtime.GC() // each set-up starts from a collected heap, so setup_s repeats
	t0 := clk.Now()
	if o.tracer != nil {
		o.tracer.epoch = t0 // server and client spans share the driver's time base
	}
	sys, err := buildSystem(w, b)
	if err != nil {
		return nil, err
	}
	p := &pass{w: w, seconds: seconds, setup: clk.Since(t0), sys: sys}
	p.scripts = genScripts(w, sys.counts, seed)
	drv := newDriver(w, sys.addr, p.scripts, seconds, t0)
	probes := sys.probes()
	gauge := func(name string) float64 {
		if g, ok := probes[name]; ok {
			return g()
		}
		return 0
	}

	drv.start()
	clk.Sleep(w.warmup)

	p.s0 = sys.snap()
	if o.tracer != nil {
		o.tracer.sampling.Store(true)
	}
	p.p0 = snapProc(drv.since())
	p.from = p.p0.at
	end := p.from + int64(seconds)*int64(time.Second)
	var reserveSum float64
	ticks := 0
	for drv.since() < end {
		left := time.Duration(end - drv.since())
		if left > sampleEvery {
			left = sampleEvery
		}
		clk.Sleep(left)
		reserveSum += gauge(variant.ProbeReserve)
		if lag := gauge(variant.ProbeDBReplLag); lag > p.replLagMax {
			p.replLagMax = lag
		}
		ticks++
	}
	p.p1 = snapProc(drv.since())
	p.to = p.p1.at
	p.s1 = sys.snap()
	p.peakRSS = peakRSSMB()
	p.reserveMean = reserveSum / float64(ticks)

	drv.halt()
	p.liveHeap = liveHeapMB()
	for _, t := range sys.tiers {
		if q := t.WaitTimes().Quantile(0.99); q > p.waitP99 {
			p.waitP99 = q
		}
	}
	if err := sys.stop(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}

	for _, s := range drv.slots {
		for _, sm := range s.samples {
			if e := sm.start + sm.dur; e >= p.from && e < p.to {
				p.reqs = append(p.reqs, sm)
				if sm.ok {
					p.nOK++
				}
			}
		}
		for _, ws := range s.wirts {
			if ws.end >= p.from && ws.end < p.to {
				p.wirts = append(p.wirts, ws)
			}
		}
	}
	p.failure = firstFailure(p.reqs)
	return p, nil
}

// firstFailure describes the window's first failed request, for the
// run's error report.
func firstFailure(reqs []sample) string {
	for _, sm := range reqs {
		if !sm.ok {
			page := "static"
			if sm.page >= 0 {
				page = tpcw.Pages[sm.page]
			}
			return fmt.Sprintf("slot %d request %d (%s) at +%.3fs", sm.id>>40, sm.id&(1<<40-1), page, float64(sm.start)/1e9)
		}
	}
	return ""
}

func (p *pass) attempted() int { return len(p.reqs) }

func (p *pass) failed() int { return len(p.reqs) - p.nOK }

// wallSeconds is the measured window's true length.
func (p *pass) wallSeconds() float64 { return float64(p.to-p.from) / 1e9 }

func (p *pass) cpuUtil() float64 {
	return (p.p1.cpu - p.p0.cpu).Seconds() / p.wallSeconds()
}

// okInteractions returns the completion times and latencies of the
// window's verified interactions.
func (p *pass) okInteractions() (ends, durs []int64) {
	for _, ws := range p.wirts {
		if ws.ok {
			ends = append(ends, ws.end)
			durs = append(durs, ws.dur)
		}
	}
	return ends, durs
}

// interactionsPerMin is whole verified interactions per paper minute,
// from the upper quartile of the window's one-second slices.
func (p *pass) interactionsPerMin() float64 {
	ends, _ := p.okInteractions()
	perWallSec := sliceRate(ends, p.from, int64(time.Second), p.seconds)
	return perWallSec * 60 / float64(p.w.scale)
}

// wirtMeanPaperSec is the mean WIRT, in paper seconds, of the verified
// interactions on the paper's slow pages (slow=true) or the others.
func (p *pass) wirtMeanPaperSec(slow bool) float64 {
	var sum time.Duration
	n := 0
	for _, ws := range p.wirts {
		if ws.ok && tpcw.SlowPages[tpcw.Pages[ws.page]] == slow {
			sum += time.Duration(ws.dur)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return p.w.scale.PaperSeconds(sum / time.Duration(n))
}

// latencyNote states the percentile sample counts (choosing-metrics: a
// percentile is reported with its sample count and needs at least ten
// samples beyond it). Percentiles are taken per slice, so the counts
// that matter are those of the slice with the fewest samples.
type latencyNote struct {
	samples  int // verified interactions in the window
	thinnest int // of them, in the slice that holds the fewest
	beyond   int // of those, beyond the slice's p95
}

// okRequests returns the completion times and the sorted latencies of
// the window's verified requests.
func (p *pass) okRequests() (ends, durs []int64) {
	for _, r := range p.reqs {
		if r.ok {
			ends = append(ends, r.start+r.dur)
			durs = append(durs, r.dur)
		}
	}
	slices.Sort(durs)
	return ends, durs
}

// throughput is verified requests per second over the window's first
// seconds one-second slices, from their upper quartile.
func (p *pass) throughput(seconds int) float64 {
	ends, _ := p.okRequests()
	return sliceRate(ends, p.from, int64(time.Second), seconds)
}

func (p *pass) cpuPerRequestUS() float64 {
	return ratio(float64(p.p1.cpu-p.p0.cpu)/1e3, float64(p.nOK))
}

// endToEnd computes the user-visible metrics of an untraced pass;
// setup_s, ok_share and live_heap_mb are completed by the caller, which
// also knows about the other set-ups and the golden replay.
//
// Latency is that of a whole web interaction — TPC-W's WIRT, what a
// user waits for — not of one HTTP request: four requests in five are
// small statics, so a per-request median would be a GIF.
//
// The three rates and latencies are quiet-quartile figures over the
// window's one-second slices (stats.go); the counted metrics are taken
// over the whole window.
func (p *pass) endToEnd() (values, latencyNote, error) {
	if p.nOK == 0 {
		return nil, latencyNote{}, fmt.Errorf("no verified request completed inside the window (%s)", p.failure)
	}
	ends, durs := p.okInteractions()
	if len(ends) == 0 {
		return nil, latencyNote{}, fmt.Errorf("no verified interaction completed inside the window (%s)", p.failure)
	}
	within := 0
	limit := int64(p.w.scale.Wall(sloPaper))
	for _, d := range durs {
		if d <= limit {
			within++
		}
	}
	sec := int64(time.Second)
	n := float64(p.nOK)
	p85, _, _ := sliceLatency(ends, durs, 0.85, p.from, sec, p.seconds)
	p95, thinnest, beyond := sliceLatency(ends, durs, 0.95, p.from, sec, p.seconds)
	return values{
		"throughput_rps":             p.throughput(p.seconds),
		"latency_p85_ms":             p85 / 1e6,
		"latency_p95_ms":             p95 / 1e6,
		"allocs_per_req":             float64(p.p1.mallocs-p.p0.mallocs) / n,
		"bytes_per_req":              float64(p.p1.bytes-p.p0.bytes) / n,
		"paper_interactions_per_min": p.interactionsPerMin(),
		"paper_slo_share":            float64(within) / float64(len(p.wirts)),
	}, latencyNote{samples: len(ends), thinnest: thinnest, beyond: beyond}, nil
}
