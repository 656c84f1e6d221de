package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/cluster"
	"stagedweb/internal/dbtier"
	"stagedweb/internal/httpwire"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/stage"
	"stagedweb/internal/template"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
	"stagedweb/internal/webtest"
)

// The ledger replays the traced pass's own recorded inputs — request
// bytes, (Template, Data) pairs, (sql, args) pairs — through each
// layer's public functions, single-threaded, and reports ns and
// allocations per call. Nothing else runs while it does, so the
// process-wide allocation counters are the replayed layer's alone.

// ledgerBudget bounds each replay loop, so a paper-time cost model
// (whose statements sleep) cannot stretch a run.
const ledgerBudget = 300 * time.Millisecond

// replay calls f(i) for i = 0, 1, ... until it has made at least
// minCalls calls or the budget is spent, and reports the mean cost.
func replay(minCalls int, f func(i int)) (nsPerCall, allocsPerCall float64, calls int) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := clk.Now()
	for calls < minCalls && (calls&63 != 0 || clk.Since(start) < ledgerBudget) {
		f(calls)
		calls++
	}
	elapsed := clk.Since(start)
	runtime.ReadMemStats(&m1)
	if calls == 0 {
		return 0, 0, 0
	}
	return float64(elapsed) / float64(calls), float64(m1.Mallocs-m0.Mallocs) / float64(calls), calls
}

// ledgerHTTPWire parses the script's bytes and writes responses of the
// sizes the workload really returned.
func ledgerHTTPWire(p *pass, out values) error {
	wire := p.scripts[0].wire(4096)
	rd := bytes.NewReader(wire)
	br := bufio.NewReader(rd)
	var perr error
	parseNS, parseAllocs, _ := replay(40_000, func(int) {
		if _, err := httpwire.ReadRequest(br); err != nil {
			if err != io.EOF {
				perr = err
			}
			rd.Reset(wire)
			br.Reset(rd)
		}
	})
	if perr != nil {
		return fmt.Errorf("ledger: httpwire parse: %w", perr)
	}
	out["httpwire.parse_ns"], out["httpwire.parse_allocs"] = parseNS, parseAllocs

	zeros := make([]byte, 64<<10)
	bw := bufio.NewWriter(io.Discard)
	reqs := p.reqs
	if len(reqs) > 4096 {
		reqs = reqs[:4096]
	}
	writeNS, _, _ := replay(40_000, func(i int) {
		r := reqs[i%len(reqs)]
		resp := httpwire.Response{Status: 200, Body: zeros[:min(int(r.size), len(zeros))], KeepAlive: true}
		if r.page < 0 {
			resp.ContentType = "image/gif"
		}
		_ = resp.Write(bw) // io.Discard cannot fail
	})
	out["httpwire.write_ns"] = writeNS
	return nil
}

// ledgerTemplate renders the recorded (Template, Data) pairs.
func ledgerTemplate(t *tracer, out values) error {
	for _, k := range []string{"template.render_ns", "template.render_allocs", "template.out_bytes", "template.parse_ns"} {
		out[k] = 0
	}
	if len(t.renders) == 0 {
		return nil
	}
	set := template.NewSet()
	set.AddAll(tpcw.Templates())
	// First Get of each template the workload rendered: lex + parse.
	var parseSum time.Duration
	seen := map[string]bool{}
	for _, r := range t.renders {
		if seen[r.template] {
			continue
		}
		seen[r.template] = true
		start := clk.Now()
		if _, err := set.Get(r.template); err != nil {
			return fmt.Errorf("ledger: template %s: %w", r.template, err)
		}
		parseSum += clk.Since(start)
	}
	out["template.parse_ns"] = float64(parseSum) / float64(len(seen))

	var rerr error
	outBytes := 0
	ns, allocs, calls := replay(2*len(t.renders), func(i int) {
		r := t.renders[i%len(t.renders)]
		s, err := set.Render(r.template, r.data)
		if err != nil {
			rerr = err
		}
		outBytes += len(s)
	})
	if rerr != nil {
		return fmt.Errorf("ledger: render: %w", rerr)
	}
	out["template.render_ns"], out["template.render_allocs"] = ns, allocs
	out["template.out_bytes"] = float64(outBytes) / float64(calls)
	return nil
}

// stmtClass buckets a replayed statement for the sqldb ledger.
type stmtClass int

const (
	classPoint stmtClass = iota // single-table SELECT, no full scan
	classScan                   // single-table SELECT that scanned
	classJoin                   // SELECT with a JOIN
	classDML                    // INSERT / UPDATE / DELETE
	numStmtClasses
)

var stmtClassMetric = [numStmtClasses]string{"sqldb.point_ns", "sqldb.scan_ns", "sqldb.join_ns", "sqldb.dml_ns"}

func timeStmt(c server.DBConn, s stmtSample) (time.Duration, error) {
	var err error
	start := clk.Now()
	if s.write {
		_, err = c.Exec(s.sql, s.args...)
	} else {
		_, err = c.Query(s.sql, s.args...)
	}
	return clk.Since(start), err
}

// ledgerSQL replays the recorded statements against clones of the
// workload's primary as it stood when the window closed. It returns the
// mix-weighted mean statement cost, which ledger.sum_us needs.
func ledgerSQL(p *pass, t *tracer, out values) (meanStmtNS float64) {
	for _, k := range append(stmtClassMetric[:], "sqldb.allocs_per_stmt", "sqldb.parse_plan_ns", "dbtier.overhead_ns", "dbtier.write_sync_ns") {
		out[k] = 0
	}
	if len(t.stmts) == 0 {
		return 0
	}
	primary := p.sys.dbs[0]

	// Parse + plan: on a clone (whose statement cache starts empty) the
	// first execution of each distinct statement compiles it and the
	// second finds it cached.
	cold := primary.Clone().Connect()
	var compile []float64
	seen := map[string]bool{}
	budget := clk.Now()
	for _, s := range t.stmts {
		if s.write || seen[s.sql] || clk.Since(budget) > ledgerBudget {
			continue
		}
		seen[s.sql] = true
		first, err1 := timeStmt(cold, s)
		second, err2 := timeStmt(cold, s)
		if err1 == nil && err2 == nil {
			compile = append(compile, float64(first-second))
		}
	}
	cold.Close()
	out["sqldb.parse_plan_ns"] = median(compile)

	// Steady state, per class. The recorded order is replayed once with
	// its writes; further passes repeat the reads only, since a replayed
	// DELETE or UPDATE finds its rows already changed. A statement that
	// fails on replay (a primary key the original run already took) is
	// left out.
	db := primary.Clone()
	conn := db.Connect()
	var (
		classNS [numStmtClasses]time.Duration
		classN  [numStmtClasses]int
		m0, m1  runtime.MemStats
	)
	runtime.ReadMemStats(&m0)
	start := clk.Now()
	total := 0
	for round := 0; round < 4 && clk.Since(start) < ledgerBudget; round++ {
		for i, s := range t.stmts {
			if s.write && round > 0 {
				continue
			}
			if i&63 == 0 && clk.Since(start) > ledgerBudget {
				break
			}
			scans := db.PlanScans()
			d, err := timeStmt(conn, s)
			if err != nil {
				continue
			}
			class := classPoint
			switch {
			case s.write:
				class = classDML
			case strings.Contains(s.sql, " JOIN "):
				class = classJoin
			case db.PlanScans() > scans:
				class = classScan
			}
			classNS[class] += d
			classN[class]++
			total++
		}
	}
	runtime.ReadMemStats(&m1)
	conn.Close()
	var sum time.Duration
	for c := range classNS {
		sum += classNS[c]
		if classN[c] > 0 {
			out[stmtClassMetric[c]] = float64(classNS[c]) / float64(classN[c])
		}
	}
	if total > 0 {
		out["sqldb.allocs_per_stmt"] = float64(m1.Mallocs-m0.Mallocs) / float64(total)
		meanStmtNS = float64(sum) / float64(total)
	}

	out["dbtier.overhead_ns"], out["dbtier.write_sync_ns"] = ledgerTier(p, t)
	return meanStmtNS
}

// ledgerTier prices the tier as the median of paired differences, which
// a few slow scans cannot move: each read through Tier.Conn() and
// through DB.Connect() on one database (alternating which goes first),
// and each write through a tier shaped like the workload's (replica
// count, apply mode) and on a bare connection to a twin database.
func ledgerTier(p *pass, t *tracer) (overheadNS, writeSyncNS float64) {
	primary := p.sys.dbs[0]
	topts := dbtier.Options{Replicas: 1, Conns: 4, Clock: clock.Precise{}, Scale: p.w.scale}

	db := primary.Clone()
	direct := db.Connect()
	tier := dbtier.New(db, topts)
	via := tier.Conn()
	var readDiffs []float64
	start := clk.Now()
	for i, s := range t.stmts {
		if s.write {
			continue
		}
		if clk.Since(start) > ledgerBudget {
			break
		}
		var d, v time.Duration
		var err1, err2 error
		if i%2 == 0 {
			d, err1 = timeStmt(direct, s)
			v, err2 = timeStmt(via, s)
		} else {
			v, err2 = timeStmt(via, s)
			d, err1 = timeStmt(direct, s)
		}
		if err1 == nil && err2 == nil {
			readDiffs = append(readDiffs, float64(v-d))
		}
	}
	direct.Close()
	tier.Close()

	dec := variant.NewSettingsDecoder(p.w.set, nil)
	topts.Replicas = dec.Int("replicas", 1)
	topts.Async = dec.Enum("repl", "sync", "sync", "async") == "async"
	bare := primary.Clone().Connect()
	tier = dbtier.New(primary.Clone(), topts)
	via = tier.Conn()
	var writeDiffs []float64
	start = clk.Now()
	for _, s := range t.stmts {
		if !s.write {
			continue
		}
		if clk.Since(start) > ledgerBudget {
			break
		}
		d, err1 := timeStmt(bare, s)
		v, err2 := timeStmt(via, s)
		if err1 == nil && err2 == nil {
			writeDiffs = append(writeDiffs, float64(v-d))
		}
	}
	bare.Close()
	tier.Close()
	return median(readDiffs), median(writeDiffs)
}

// ledgerStage times Stage.Submit to the moment a worker picks the item
// up, with a no-op item on an idle one-worker stage.
func ledgerStage(out values) {
	epoch := clk.Now()
	picked := make(chan int64)
	st := stage.New(stage.Config[int]{
		Name: "ledger", Workers: 1,
		Work: func(int) { picked <- int64(clk.Since(epoch)) },
	})
	st.Start()
	var sum int64
	_, allocs, calls := replay(20_000, func(i int) {
		t0 := int64(clk.Since(epoch))
		_ = st.Submit(i) // the stage is open and its queue empty
		sum += <-picked - t0
	})
	st.Stop()
	out["stage.handoff_ns"] = float64(sum) / float64(calls)
	out["stage.handoff_allocs"] = allocs
}

// nullApp is a webtest.App with a one-line page: the cheapest request a
// variant can serve, so its round trip is the price of the wire, the
// transport and the stage hops alone.
func nullApp() *webtest.App {
	return webtest.NewApp().AddPage("/null", func(*server.Request) (*server.Result, error) {
		return &server.Result{Body: "<html>null</html>"}, nil
	})
}

var nullExpect = expectation{marker: []byte("<html>null</html>")}

// nullRTT serves the null page from inst and returns the mean
// keep-alive round trip, in µs.
func nullRTT(inst variant.Instance) (float64, error) {
	l, addr, err := webtest.Listen()
	if err != nil {
		return 0, err
	}
	served := make(chan error, 1)
	go func() { served <- inst.Serve(l) }()
	us, _, err := stubRTT(addr, []byte("GET /null"), nullExpect)
	inst.Stop()
	if serr := <-served; err == nil {
		err = serr
	}
	return us, err
}

// stubRTT drives one keep-alive connection with the same request over
// and over and returns the mean round trip (µs) and the process's
// allocations per round trip.
func stubRTT(addr string, target []byte, exp expectation) (us, allocs float64, err error) {
	nc, err := dialWire(addr)
	if err != nil {
		return 0, 0, err
	}
	c := wireConn{nc: nc, wbuf: make([]byte, 0, 512), rbuf: make([]byte, 64<<10)}
	defer c.close()
	do := func(i int) {
		c.wbuf = appendRequest(c.wbuf[:0], target, 0, uint64(i+1))
		status, body, rerr := c.roundTrip()
		if rerr == nil && !exp.check(status, body) {
			rerr = fmt.Errorf("unexpected response (status %d, %d bytes)", status, len(body))
		}
		if rerr != nil && err == nil {
			err = rerr
		}
	}
	for i := 0; i < 200 && err == nil; i++ { // warm the path
		do(i)
	}
	ns, allocs, _ := replay(5000, func(i int) {
		if err == nil {
			do(i)
		}
	})
	return ns / 1e3, allocs, err
}

func buildNull(name string) (variant.Instance, error) {
	v, ok := variant.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown variant %q", name)
	}
	return v.Build(variant.Env{
		App:   nullApp(),
		DB:    sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()}),
		Clock: clock.Precise{},
		Scale: clock.RealTime,
	})
}

// ledgerServer prices the null round trip through each variant and
// through a one-shard balancer.
func ledgerServer(out values) error {
	rtt := map[string]float64{}
	for _, name := range []string{variant.Modified, variant.Unmodified} {
		inst, err := buildNull(name)
		if err != nil {
			return err
		}
		if rtt[name], err = nullRTT(inst); err != nil {
			return fmt.Errorf("ledger: null page on %s: %w", name, err)
		}
	}
	out["server.null_rtt_us.modified"] = rtt[variant.Modified]
	out["server.null_rtt_us.unmodified"] = rtt[variant.Unmodified]

	shard, err := buildNull(variant.Modified)
	if err != nil {
		return err
	}
	bal, err := cluster.New(cluster.Options{Shards: 1, LB: cluster.LBHash, Clock: clock.Precise{}, Scale: clock.RealTime},
		[]variant.Instance{shard}, func(string, map[string]string) cluster.Decision { return cluster.Decision{} })
	if err != nil {
		shard.Stop()
		return err
	}
	hop, err := nullRTT(bal)
	if err != nil {
		return fmt.Errorf("ledger: null page through the balancer: %w", err)
	}
	out["cluster.hop_us"] = hop - rtt[variant.Modified]
	return nil
}

// ledgerClient calibrates the generator against a stub listener that
// answers every request with one canned thumbnail-sized response: the
// floor under every latency the benchmark reports, and the proof that
// allocs_per_req is the server's, not the generator's.
func ledgerClient(out values) error {
	l, addr, err := webtest.Listen()
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveStub(l)
	}()
	target := thumb(0)
	us, allocs, err := stubRTT(addr, target, imageExpectation(target))
	_ = l.Close()
	<-done
	if err != nil {
		return fmt.Errorf("ledger: stub listener: %w", err)
	}
	out["client.floor_us"], out["client.allocs_per_req"] = us, allocs
	return nil
}

// serveStub accepts connections until l closes; on each it answers
// every request head with the canned response, allocating nothing per
// request. It returns once every connection it accepted has ended.
func serveStub(l net.Listener) {
	body := make([]byte, 1536)
	copy(body, gifMagic)
	canned := append([]byte("HTTP/1.1 200 OK\r\nServer: stub\r\nContent-Type: image/gif\r\nContent-Length: 1536\r\nConnection: keep-alive\r\n\r\n"), body...)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { _ = nc.Close() }()
			buf := make([]byte, 4096)
			n := 0
			for {
				m, err := nc.Read(buf[n:])
				if err != nil {
					return
				}
				n += m
				// Closed loop: at most one request is ever in flight.
				if bytes.HasSuffix(buf[:n], hdrEnd) {
					n = 0
					if _, err := nc.Write(canned); err != nil {
						return
					}
				}
			}
		}()
	}
}

// ledgerSum adds the ledger up per HTTP request and compares it with
// the traced pass's measured round trip (ROADMAP: within ~20%, or a
// layer is missing from the ledger).
func ledgerSum(w workload, out values, meanStmtNS float64) {
	stmts := out["db.stmts_per_req"]
	pages := 1 - out["server.static_share"]
	sum := out["server.null_rtt_us.modified"] +
		stmts*(meanStmtNS+out["dbtier.overhead_ns"])/1e3 +
		pages*out["template.render_ns"]/1e3
	if w.shards > 0 {
		sum += out["cluster.hop_us"]
	}
	out["ledger.sum_us"] = sum
	out["ledger.coverage"] = 0
	if rtt := out["client.rtt_us"]; rtt > 0 {
		out["ledger.coverage"] = sum / rtt
	}
}
