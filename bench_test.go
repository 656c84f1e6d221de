package stagedweb

// One benchmark per table and figure of the DSN'09 evaluation, plus
// ablation benches for the design decisions called out in README.md
// ("Design notes") and micro-benchmarks for each substrate. Experiment
// benches run a miniature two-minute TPC-W experiment per iteration and
// report the reproduced quantity via b.ReportMetric; run with
//
//	go test -bench=. -benchmem
//
// and see cmd/experiments for the full-scale reproduction.

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"testing"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/dbtier"
	"stagedweb/internal/harness"
	"stagedweb/internal/sched"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/template"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
	"stagedweb/internal/workload"
)

// miniConfig is a reduced experiment sized for benchmark iterations
// (~2 s wall each at scale 200 on a single core).
func miniConfig(variantName string) harness.Config {
	cfg := harness.QuickConfig(variantName, clock.Timescale(200))
	cfg.EBs = 60
	cfg.RampUp = 15 * time.Second
	cfg.Measure = 2 * time.Minute
	cfg.CoolDown = 5 * time.Second
	cfg.Populate = tpcw.PopulateConfig{Items: 800, Customers: 200, Orders: 180}
	return cfg
}

func runMini(b *testing.B, variantName string, mutate func(*harness.Config)) *harness.Result {
	b.Helper()
	cfg := miniConfig(variantName)
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := harness.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// ---- Table 1: dispatch rules ----

func BenchmarkTable1Dispatch(b *testing.B) {
	cls := sched.NewClassifier(sched.DefaultCutoff)
	cls.Record("/best_sellers", 8*time.Second)
	cls.Record("/home", 20*time.Millisecond)
	rc := sched.NewReserveController(20)
	d := sched.NewDispatcher(cls, rc, func() int { return 30 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			d.Choose("/home")
		} else {
			d.Choose("/best_sellers")
		}
	}
}

// ---- Table 2: reserve controller ----

func BenchmarkTable2ReserveController(b *testing.B) {
	rc := sched.NewReserveController(20)
	trace := []int{35, 24, 17, 21, 30, 36, 38, 37, 35, 39}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc.Update(trace[i%len(trace)])
	}
}

// ---- Tables 3 and 4: full experiment, both variants ----

func BenchmarkTable3ResponseTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		unmod := runMini(b, variant.Unmodified, nil)
		mod := runMini(b, variant.Modified, nil)
		u := unmod.Pages[tpcw.PageHome].MeanPaperSec
		m := mod.Pages[tpcw.PageHome].MeanPaperSec
		if m > 0 {
			b.ReportMetric(u/m, "home-speedup")
		}
	}
}

func BenchmarkTable4Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		unmod := runMini(b, variant.Unmodified, nil)
		mod := runMini(b, variant.Modified, nil)
		b.ReportMetric(harness.ThroughputGainPercent(unmod, mod), "gain-%")
		b.ReportMetric(float64(mod.TotalInteractions), "interactions")
	}
}

// ---- Figure 7: baseline queue length ----

func BenchmarkFigure7QueueBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		unmod := runMini(b, variant.Unmodified, nil)
		b.ReportMetric(harness.SeriesMax(unmod.Series[variant.ProbeQueueSingle]), "queue-max")
		b.ReportMetric(harness.SeriesMean(unmod.Series[variant.ProbeQueueSingle]), "queue-mean")
	}
}

// ---- Figure 8: staged queue lengths ----

func BenchmarkFigure8QueuesStaged(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mod := runMini(b, variant.Modified, nil)
		b.ReportMetric(harness.SeriesMax(mod.Series[variant.ProbeQueueGeneral]), "general-max")
		b.ReportMetric(harness.SeriesMax(mod.Series[variant.ProbeQueueLengthy]), "lengthy-max")
	}
}

// ---- Figure 9: total throughput over time ----

func BenchmarkFigure9Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		unmod := runMini(b, variant.Unmodified, nil)
		mod := runMini(b, variant.Modified, nil)
		b.ReportMetric(harness.SeriesMean(unmod.Series[harness.SeriesThroughputAll]), "unmod-per-min")
		b.ReportMetric(harness.SeriesMean(mod.Series[harness.SeriesThroughputAll]), "mod-per-min")
	}
}

// ---- Figure 10: per-class throughput ----

func BenchmarkFigure10PerClass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mod := runMini(b, variant.Modified, nil)
		b.ReportMetric(harness.SeriesMean(mod.Series[harness.SeriesThroughputStatic]), "static-per-min")
		b.ReportMetric(harness.SeriesMean(mod.Series[harness.SeriesThroughputQuick]), "quick-per-min")
		b.ReportMetric(harness.SeriesMean(mod.Series[harness.SeriesThroughputLengthy]), "lengthy-per-min")
	}
}

// BenchmarkSpikeProfile pushes a flash crowd (the "spike" load profile:
// base population plus a burst of extra EBs mid-window) through the
// baseline and staged servers — the scenario the t_reserve controller
// exists to survive. Reported per variant: completed interactions
// through the crowd, the peak offered population the client.active
// series saw, and the worst per-second client WIRT.
func BenchmarkSpikeProfile(b *testing.B) {
	for _, v := range []string{variant.Unmodified, variant.Modified} {
		b.Run(v, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runMini(b, v, func(cfg *harness.Config) {
					cfg.Load = workload.Spike
					cfg.LoadSet = variant.Settings{
						"burst": "120", "at": "45s", "width": "30s",
					}
				})
				b.ReportMetric(float64(res.TotalInteractions), "interactions")
				b.ReportMetric(harness.SeriesMax(res.Series[workload.ProbeActive]), "peak-ebs")
				b.ReportMetric(harness.SeriesMax(res.Series[workload.ProbeWIRT]), "worst-wirt-sec")
			}
		})
	}
}

// BenchmarkScaleoutReplicas runs the miniature browsing-mix experiment
// on the staged server across database replica counts with a scarce
// per-backend connection pool — the -exp scaleout comparison: reads
// route round-robin across backends, so throughput climbs with the
// replica count while db.wait falls.
func BenchmarkScaleoutReplicas(b *testing.B) {
	for _, replicas := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runMini(b, variant.Modified, func(cfg *harness.Config) {
					cfg.Defaults["replicas"] = strconv.Itoa(replicas)
					cfg.Defaults["dbconns"] = "4"
				})
				b.ReportMetric(float64(res.TotalInteractions), "interactions")
				b.ReportMetric(harness.SeriesMax(res.Series[variant.ProbeDBWait]), "db-waits")
			}
		})
	}
}

// BenchmarkDBTierFanOut measures the raw tier write path as replicas
// grow: every Exec is applied synchronously to each backend, so per-op
// cost is the price the ordering mix pays for read scale-out.
func BenchmarkDBTierFanOut(b *testing.B) {
	for _, replicas := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
			db.MustCreateTable(sqldb.Schema{
				Table:      "kv",
				Columns:    []sqldb.Column{{Name: "id", Type: sqldb.Int}, {Name: "v", Type: sqldb.String}},
				PrimaryKey: "id",
			})
			tier := dbtier.New(db, dbtier.Options{Replicas: replicas, Conns: 2})
			defer tier.Close()
			c := tier.Conn()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Exec("INSERT INTO kv (id, v) VALUES (?, 'x')", i+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMVCCReadHotWriteHot measures the tentpole claim of the MVCC
// engine directly: point SELECTs against a hot table while background
// writers continuously update the same rows, each write charging
// paper-time cost. Under lock mode every reader queues behind the
// writer's cost sleep (it is charged while the table write lock is
// held); under mvcc mode reads run against a snapshot and never wait,
// so per-read latency should be orders of magnitude lower.
func BenchmarkMVCCReadHotWriteHot(b *testing.B) {
	for _, mode := range []struct {
		name string
		mvcc bool
	}{{"lock", false}, {"mvcc", true}} {
		b.Run(mode.name, func(b *testing.B) {
			db := sqldb.Open(sqldb.Options{
				Cost: &sqldb.CostModel{PerStatement: 200 * time.Microsecond},
			})
			db.SetMVCC(mode.mvcc)
			db.MustCreateTable(sqldb.Schema{
				Table:      "hot",
				Columns:    []sqldb.Column{{Name: "id", Type: sqldb.Int}, {Name: "v", Type: sqldb.Int}},
				PrimaryKey: "id",
			})
			seed := db.Connect()
			for i := 1; i <= 16; i++ {
				if _, err := seed.Exec("INSERT INTO hot (id, v) VALUES (?, 0)", i); err != nil {
					b.Fatal(err)
				}
			}
			seed.Close()
			stop := make(chan struct{})
			done := make(chan struct{})
			for w := 0; w < 2; w++ {
				go func(w int) {
					defer func() { done <- struct{}{} }()
					c := db.Connect()
					defer c.Close()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := c.Exec("UPDATE hot SET v = ? WHERE id = ?", i, i%16+1); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			c := db.Connect()
			defer c.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Query("SELECT v FROM hot WHERE id = ?", i%16+1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			close(stop)
			<-done
			<-done
			b.ReportMetric(float64(db.Conflicts()), "conflicts")
			b.ReportMetric(float64(db.SnapshotReads()), "snapshot-reads")
		})
	}
}

// BenchmarkMVCCReplicationModes measures the tier write path as replicas
// grow under each replication mode: sync waits for every replica to
// apply before Exec returns (per-op cost scales with the replica count);
// async only appends to the replication log, so per-op cost stays flat.
func BenchmarkMVCCReplicationModes(b *testing.B) {
	for _, mode := range []struct {
		name  string
		async bool
	}{{"sync", false}, {"async", true}} {
		for _, replicas := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/replicas=%d", mode.name, replicas), func(b *testing.B) {
				db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
				db.SetMVCC(true)
				db.MustCreateTable(sqldb.Schema{
					Table:      "kv",
					Columns:    []sqldb.Column{{Name: "id", Type: sqldb.Int}, {Name: "v", Type: sqldb.String}},
					PrimaryKey: "id",
				})
				tier := dbtier.New(db, dbtier.Options{Replicas: replicas, Conns: 2, Async: mode.async})
				defer tier.Close()
				c := tier.Conn()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.Exec("INSERT INTO kv (id, v) VALUES (?, 'x')", i+1); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				tier.Sync()
			})
		}
	}
}

// BenchmarkAblationNoReserve compares the full staged server against the
// ModifiedNoReserve topology variant (t_reserve controller ablated) —
// instantiated purely from harness configuration.
func BenchmarkAblationNoReserve(b *testing.B) {
	for _, v := range []string{variant.Modified, variant.ModifiedNoReserve} {
		b.Run(v, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runMini(b, v, nil)
				b.ReportMetric(float64(res.TotalInteractions), "interactions")
				b.ReportMetric(res.Pages[tpcw.PageHome].MeanPaperSec, "home-sec")
			}
		})
	}
}

// ---- Ablations (README.md "Design notes") ----

// BenchmarkAblationConnPlacement compares the two connection-placement
// strategies directly: per-worker connections doing everything
// (baseline) vs connections bound to dynamic workers only (staged).
func BenchmarkAblationConnPlacement(b *testing.B) {
	for _, v := range []string{variant.Unmodified, variant.Modified} {
		b.Run(v, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runMini(b, v, nil)
				b.ReportMetric(float64(res.TotalInteractions), "interactions")
			}
		})
	}
}

// BenchmarkAblationSinglePool disables the two-pool split by raising the
// cutoff above any page's service time: every dynamic request lands in
// the general pool, as in a single-dynamic-pool design.
func BenchmarkAblationSinglePool(b *testing.B) {
	for _, split := range []bool{true, false} {
		name := "two-pools"
		if !split {
			name = "single-pool"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runMini(b, variant.Modified, func(cfg *harness.Config) {
					if !split {
						cfg.Defaults["cutoff"] = time.Hour.String() // nothing classifies lengthy
					}
				})
				b.ReportMetric(float64(res.TotalInteractions), "interactions")
				b.ReportMetric(res.Pages[tpcw.PageHome].MeanPaperSec, "home-sec")
			}
		})
	}
}

// BenchmarkAblationPoolRatio sweeps the general:lengthy worker ratio the
// paper fixes at 4:1, holding the total connection budget constant.
func BenchmarkAblationPoolRatio(b *testing.B) {
	const budget = 26
	for _, lengthy := range []int{2, 5, 9, 13} {
		b.Run(fmt.Sprintf("lengthy-%d-of-%d", lengthy, budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runMini(b, variant.Modified, func(cfg *harness.Config) {
					cfg.Defaults["general"] = strconv.Itoa(budget - lengthy)
					cfg.Defaults["lengthy"] = strconv.Itoa(lengthy)
				})
				b.ReportMetric(float64(res.TotalInteractions), "interactions")
				b.ReportMetric(res.Pages[tpcw.PageBestSellers].MeanPaperSec, "bestsellers-sec")
			}
		})
	}
}

// BenchmarkAblationCutoff sweeps the quick/lengthy boundary around the
// paper's 2 s choice.
func BenchmarkAblationCutoff(b *testing.B) {
	for _, cutoff := range []time.Duration{500 * time.Millisecond, 2 * time.Second, 8 * time.Second} {
		b.Run(cutoff.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runMini(b, variant.Modified, func(cfg *harness.Config) {
					cfg.Defaults["cutoff"] = cutoff.String()
				})
				b.ReportMetric(res.Pages[tpcw.PageHome].MeanPaperSec, "home-sec")
				b.ReportMetric(float64(res.TotalInteractions), "interactions")
			}
		})
	}
}

// BenchmarkAblationDeferredRender compares the paper's deferred-render
// return style against eagerly rendering inside the handler (the
// backward-compatibility path, which keeps rendering on the
// connection-holding worker).
func BenchmarkAblationDeferredRender(b *testing.B) {
	// The eager case is approximated by charging render work on the
	// dynamic worker: with zero render cost the difference vanishes, so
	// compare normal work cost vs render cost folded into the DB side.
	b.Run("deferred", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := runMini(b, variant.Modified, nil)
			b.ReportMetric(float64(res.TotalInteractions), "interactions")
		}
	})
	b.Run("eager-on-db-worker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := runMini(b, variant.Modified, func(cfg *harness.Config) {
				// Move the render cost into the per-statement database
				// charge: the conn-holding worker pays it, as the
				// unmodified return style would.
				cfg.Work.RenderBase = 0
				cfg.Work.RenderPerKB = 0
				cfg.Cost.PerStatement += 25 * time.Millisecond
			})
			b.ReportMetric(float64(res.TotalInteractions), "interactions")
		}
	})
}

// ---- substrate micro-benchmarks ----

// benchConn is a no-op net.Conn for transport allocation benchmarks.
type benchConn struct{}

func (benchConn) Read([]byte) (int, error)         { return 0, fmt.Errorf("eof") }
func (benchConn) Write(p []byte) (int, error)      { return len(p), nil }
func (benchConn) Close() error                     { return nil }
func (benchConn) LocalAddr() net.Addr              { return nil }
func (benchConn) RemoteAddr() net.Addr             { return nil }
func (benchConn) SetDeadline(time.Time) error      { return nil }
func (benchConn) SetReadDeadline(time.Time) error  { return nil }
func (benchConn) SetWriteDeadline(time.Time) error { return nil }

// BenchmarkTransportConnSetup measures per-connection buffered-I/O setup,
// the hot path of accept-heavy workloads (closed connections, shed
// keep-alives). "unpooled" allocates a fresh bufio reader/writer pair per
// connection, the pre-transport behaviour of both servers; "pooled" is
// the shared transport: a sync.Pool reader and no writer at all (replies
// are assembled in a pooled wire buffer and leave in one Write). Measured
// on a Xeon @2.10GHz: unpooled 2 allocs/op and 8192 B/op (the two 4 KiB
// buffers); pooled 1 alloc/op and 320 B/op (the Conn and its header-field
// storage), a tenth of the setup time.
func BenchmarkTransportConnSetup(b *testing.B) {
	b.Run("unpooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			br := bufio.NewReader(benchConn{})
			bw := bufio.NewWriter(benchConn{})
			_, _ = br, bw
		}
	})
	b.Run("pooled", func(b *testing.B) {
		tr := server.NewTransport(server.TransportConfig{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := tr.NewConn(benchConn{})
			c.Close()
		}
	})
}

func BenchmarkTemplateRenderTPCWPage(b *testing.B) {
	set := template.NewSet()
	set.AddAll(tpcw.Templates())
	rows := &sqldb.ResultSet{Columns: []string{"i_id", "i_title", "i_cost", "a_fname", "a_lname", "qty"}}
	for i := 0; i < 50; i++ {
		rows.Rows = append(rows.Rows, []sqldb.Value{
			int64(i), "SOME BOOK TITLE", 12.34, "First", "Last", int64(10),
		})
	}
	data := map[string]any{"subject": "ARTS", "results": rows}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := set.Render("best_sellers.html", data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLPointQuery(b *testing.B) {
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	if err := tpcw.CreateTables(db); err != nil {
		b.Fatal(err)
	}
	if _, err := tpcw.Populate(db, tpcw.PopulateConfig{Items: 1000, Customers: 100, Orders: 80}); err != nil {
		b.Fatal(err)
	}
	c := db.Connect()
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query("SELECT i_title, i_cost FROM item WHERE i_id = ?", i%1000+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLScanQuery(b *testing.B) {
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	if err := tpcw.CreateTables(db); err != nil {
		b.Fatal(err)
	}
	if _, err := tpcw.Populate(db, tpcw.PopulateConfig{Items: 1000, Customers: 100, Orders: 80}); err != nil {
		b.Fatal(err)
	}
	c := db.Connect()
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(
			"SELECT i_id FROM item JOIN author ON i_a_id = a_id WHERE i_subject = ? ORDER BY i_pub_date DESC LIMIT 50",
			tpcw.Subjects[i%len(tpcw.Subjects)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLBestSellersAggregate(b *testing.B) {
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	if err := tpcw.CreateTables(db); err != nil {
		b.Fatal(err)
	}
	if _, err := tpcw.Populate(db, tpcw.PopulateConfig{Items: 1000, Customers: 100, Orders: 200}); err != nil {
		b.Fatal(err)
	}
	c := db.Connect()
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(
			`SELECT i_id, i_title, SUM(ol_qty) AS qty FROM order_line
			 JOIN item ON ol_i_id = i_id WHERE ol_o_id > 0 GROUP BY i_id
			 ORDER BY qty DESC LIMIT 50`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkCostModel(b *testing.B) {
	w := server.DefaultWorkCost()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Render(12 << 10)
		_ = w.Static(4 << 10)
	}
}

func BenchmarkClassifierRecord(b *testing.B) {
	cls := sched.NewClassifier(sched.DefaultCutoff)
	pages := tpcw.Pages
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls.Record(pages[i%len(pages)], time.Duration(i%1000)*time.Millisecond)
	}
}

func BenchmarkTemplateParse(b *testing.B) {
	srcs := tpcw.Templates()
	src := srcs["best_sellers.html"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := template.NewSet()
		set.AddAll(srcs)
		set.Add("bench.html", src)
		if _, err := set.Get("bench.html"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMixPick(b *testing.B) {
	// Deterministic weighted picking from the browsing mix.
	m := tpcw.NewMix(tpcw.BrowsingMix)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Pick(rng)
	}
}
