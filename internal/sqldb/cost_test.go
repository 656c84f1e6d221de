package sqldb

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"stagedweb/internal/clock"
)

func TestCostCounterTotal(t *testing.T) {
	m := CostModel{
		PerStatement:  time.Millisecond,
		PerRowScanned: 10 * time.Microsecond,
		PerIndexProbe: 2 * time.Microsecond,
		PerRowMatched: 1 * time.Microsecond,
		PerSortRow:    3 * time.Microsecond,
		PerRowWritten: 100 * time.Microsecond,
	}
	c := costCounter{scanned: 100, probes: 5, matched: 10, sorted: 10, written: 2}
	want := time.Millisecond + 1000*time.Microsecond + 10*time.Microsecond +
		10*time.Microsecond + 30*time.Microsecond + 200*time.Microsecond
	if got := c.total(m); got != want {
		t.Fatalf("total = %v, want %v", got, want)
	}
}

func TestZeroCostModelChargesNothing(t *testing.T) {
	c := costCounter{scanned: 1 << 20, written: 1 << 20}
	if got := c.total(*ZeroCostModel()); got != 0 {
		t.Fatalf("zero model charged %v", got)
	}
}

// TestScanCostsMoreThanProbe verifies the core calibration property: a
// full scan of a large table charges orders of magnitude more than an
// indexed point query — the paper's fast/slow page dichotomy.
func TestScanCostsMoreThanProbe(t *testing.T) {
	db := Open(Options{Cost: ZeroCostModel()})
	db.MustCreateTable(Schema{
		Table:      "item",
		Columns:    []Column{{Name: "i_id", Type: Int}, {Name: "i_title", Type: String}},
		PrimaryKey: "i_id",
	})
	c := db.Connect()
	defer c.Close()
	for i := 1; i <= 5000; i++ {
		mustExec(t, c, "INSERT INTO item (i_id, i_title) VALUES (?, ?)", i, "title")
	}
	m := DefaultCostModel()

	probeCtx := &execCtx{args: []Value{int64(42)}}
	s, err := parseSQL("SELECT i_title FROM item WHERE i_id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.execSelect(s.(*selectStmt), probeCtx); err != nil {
		t.Fatal(err)
	}

	scanCtx := &execCtx{args: []Value{"%x%"}}
	s2, err := parseSQL("SELECT i_title FROM item WHERE i_title LIKE ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.execSelect(s2.(*selectStmt), scanCtx); err != nil {
		t.Fatal(err)
	}

	probeCost := probeCtx.cost.total(m)
	scanCost := scanCtx.cost.total(m)
	if scanCost < 100*probeCost {
		t.Fatalf("scan %v is not >=100x probe %v", scanCost, probeCost)
	}
	// And in absolute paper-time terms: the point query must be
	// milliseconds, the scan must be seconds-scale on a TPC-W-sized table.
	if probeCost > 50*time.Millisecond {
		t.Fatalf("probe too slow: %v", probeCost)
	}
	if scanCost < 500*time.Millisecond {
		t.Fatalf("scan too fast for the paper's slow-page class: %v", scanCost)
	}
}

// TestChargeSleepsScaled verifies the engine sleeps the modeled cost
// through the timescale.
func TestChargeSleepsScaled(t *testing.T) {
	db := Open(Options{
		Timescale: clock.Timescale(1000), // 1 paper-second = 1ms
		Cost: &CostModel{
			PerStatement: 100 * time.Millisecond, // paper time
		},
	})
	db.MustCreateTable(Schema{
		Table:      "t",
		Columns:    []Column{{Name: "id", Type: Int}},
		PrimaryKey: "id",
	})
	c := db.Connect()
	defer c.Close()
	start := time.Now()
	mustExec(t, c, "INSERT INTO t (id) VALUES (1)")
	elapsed := time.Since(start)
	// 100ms paper at 1000x = 100µs wall minimum.
	if elapsed < 100*time.Microsecond {
		t.Fatalf("statement took %v, expected >= 100µs of modeled latency", elapsed)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("statement took %v, timescale seems unapplied", elapsed)
	}
}

// TestWriterWaitsForReaders reproduces the admin-response phenomenon:
// an UPDATE on a table must wait for a long-running read query to finish.
func TestWriterWaitsForReaders(t *testing.T) {
	db := Open(Options{
		Timescale: clock.Timescale(100),
		Cost: &CostModel{
			PerRowScanned: 10 * time.Millisecond, // paper time; 1000 rows -> 10s paper -> 100ms wall
		},
	})
	db.MustCreateTable(Schema{
		Table:      "item",
		Columns:    []Column{{Name: "i_id", Type: Int}, {Name: "i_cost", Type: Float}},
		PrimaryKey: "i_id",
	})
	seed := db.Connect()
	for i := 1; i <= 1000; i++ {
		mustExec(t, seed, "INSERT INTO item (i_id, i_cost) VALUES (?, 1.0)", i)
	}
	seed.Close()

	readerStarted := make(chan struct{})
	readerDone := make(chan time.Time, 1)
	go func() {
		c := db.Connect()
		defer c.Close()
		close(readerStarted)
		// Scan query: holds the read lock for ~100ms wall.
		_, err := c.Query("SELECT i_id FROM item WHERE i_cost > 0.5")
		if err != nil {
			t.Error(err)
		}
		readerDone <- time.Now()
	}()
	<-readerStarted
	// Wait until the reader holds the table lock: while a TryLock
	// succeeds, it does not yet.
	tbl, err := db.lookupTable("item")
	if err != nil {
		t.Fatal(err)
	}
	for tbl.lock.TryLock() {
		tbl.lock.Unlock()
		if len(readerDone) > 0 {
			t.Fatal("the reader finished before it was seen holding the table lock")
		}
		runtime.Gosched()
	}

	w := db.Connect()
	defer w.Close()
	res, err := w.Exec("UPDATE item SET i_cost = 2.0 WHERE i_id = 1")
	writerDone := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("RowsAffected = %d", res.RowsAffected)
	}
	readerFinish := <-readerDone
	if writerDone.Before(readerFinish) {
		t.Fatal("writer finished before the reader released the table lock")
	}
}

// TestIndexedEqualityChargesLess closes a long-standing blind spot:
// TestIndexMatchesScanProperty proves the indexed path returns the
// right rows, but nothing asserted it is *charged* less than the scan
// it replaces. Here an equality query on an indexed column must
// accumulate far less modeled cost than the same-shaped query on an
// unindexed column — under both storage engines, for both a value
// that exists (pay per entry visited) and one that does not (pay the
// probe, nearly nothing else).
func TestIndexedEqualityChargesLess(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		name := "lock"
		if mvcc {
			name = "mvcc"
		}
		t.Run(name, func(t *testing.T) {
			db := Open(Options{Cost: ZeroCostModel()})
			db.SetMVCC(mvcc)
			db.MustCreateTable(Schema{
				Table: "t",
				Columns: []Column{
					{Name: "id", Type: Int},
					{Name: "grp", Type: Int},
					{Name: "val", Type: Int},
				},
				PrimaryKey: "id",
				Indexes:    []string{"grp"},
			})
			c := db.Connect()
			defer c.Close()
			for i := 1; i <= 5000; i++ {
				mustExec(t, c, "INSERT INTO t (id, grp, val) VALUES (?, ?, ?)", i, i%50, i%50)
			}
			m := DefaultCostModel()

			charge := func(sql string, arg int64) time.Duration {
				t.Helper()
				s, err := parseSQL(sql)
				if err != nil {
					t.Fatal(err)
				}
				ctx := &execCtx{args: []Value{arg}}
				if _, err := db.execSelect(s.(*selectStmt), ctx); err != nil {
					t.Fatal(err)
				}
				return ctx.cost.total(m)
			}

			scanHit := charge("SELECT id FROM t WHERE val = ?", 7)
			scanMiss := charge("SELECT id FROM t WHERE val = ?", 999)
			idxHit := charge("SELECT id FROM t WHERE grp = ?", 7)
			idxMiss := charge("SELECT id FROM t WHERE grp = ?", 999)

			// The index must not merely win — it must win by enough to
			// move a page across the paper's quick/lengthy boundary.
			if scanHit < 20*idxHit {
				t.Fatalf("indexed hit %v is not >=20x cheaper than scan hit %v", idxHit, scanHit)
			}
			if scanMiss < 20*idxMiss {
				t.Fatalf("indexed miss %v is not >=20x cheaper than scan miss %v", idxMiss, scanMiss)
			}
			// A miss visits no entries: it may not charge more than a hit,
			// and the scan pays the full table either way.
			if idxMiss > idxHit {
				t.Fatalf("indexed miss %v charged more than hit %v", idxMiss, idxHit)
			}
			if scanMiss < scanHit/2 {
				t.Fatalf("scan miss %v did not pay the full-table price (hit %v)", scanMiss, scanHit)
			}
		})
	}
}

// Property: after an arbitrary interleaving of inserts, updates, and
// deletes, an indexed equality query returns exactly the rows a full scan
// predicate would. (TestIndexedEqualityChargesLess is the cost-side
// companion: the indexed path must also be charged less.)
func TestIndexMatchesScanProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := Open(Options{Cost: ZeroCostModel()})
		db.MustCreateTable(Schema{
			Table: "t",
			Columns: []Column{
				{Name: "id", Type: Int},
				{Name: "grp", Type: Int},
				{Name: "val", Type: Int},
			},
			PrimaryKey: "id",
			Indexes:    []string{"grp"},
		})
		c := db.Connect()
		defer c.Close()
		live := map[int64]int64{} // id -> grp
		nextID := int64(1)
		for op := 0; op < 200; op++ {
			switch r.Intn(4) {
			case 0, 1: // insert
				grp := int64(r.Intn(5))
				if _, err := c.Exec("INSERT INTO t (id, grp, val) VALUES (?, ?, ?)", nextID, grp, r.Intn(100)); err != nil {
					return false
				}
				live[nextID] = grp
				nextID++
			case 2: // update a random row's group
				if len(live) == 0 {
					continue
				}
				id := randomKey(r, live)
				grp := int64(r.Intn(5))
				if _, err := c.Exec("UPDATE t SET grp = ? WHERE id = ?", grp, id); err != nil {
					return false
				}
				live[id] = grp
			case 3: // delete a random row
				if len(live) == 0 {
					continue
				}
				id := randomKey(r, live)
				if _, err := c.Exec("DELETE FROM t WHERE id = ?", id); err != nil {
					return false
				}
				delete(live, id)
			}
		}
		// Compare indexed lookup vs model for each group.
		for grp := int64(0); grp < 5; grp++ {
			rs, err := c.Query("SELECT id FROM t WHERE grp = ?", grp)
			if err != nil {
				return false
			}
			want := 0
			for _, g := range live {
				if g == grp {
					want++
				}
			}
			if rs.Len() != want {
				return false
			}
			for i := 0; i < rs.Len(); i++ {
				if live[rs.Int(i, "id")] != grp {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func randomKey(r *rand.Rand, m map[int64]int64) int64 {
	n := r.Intn(len(m))
	for k := range m {
		if n == 0 {
			return k
		}
		n--
	}
	panic("unreachable")
}

// TestConnSerializesStatements verifies one connection cannot run two
// statements at once (the paper's per-thread connection discipline).
func TestConnSerializesStatements(t *testing.T) {
	db := Open(Options{
		Timescale: clock.Timescale(1),
		Cost:      &CostModel{PerStatement: 20 * time.Millisecond},
	})
	db.MustCreateTable(Schema{
		Table:      "t",
		Columns:    []Column{{Name: "id", Type: Int}},
		PrimaryKey: "id",
	})
	c := db.Connect()
	defer c.Close()

	var wg sync.WaitGroup
	busyErrs := 0
	var mu sync.Mutex
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			_, err := c.Exec("INSERT INTO t (id) VALUES (?)", id+1)
			if err == ErrConnBusy {
				mu.Lock()
				busyErrs++
				mu.Unlock()
			} else if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if busyErrs == 0 {
		t.Fatal("concurrent statements on one connection were not rejected")
	}
}
