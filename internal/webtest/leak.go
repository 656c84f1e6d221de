package webtest

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"stagedweb/internal/sqldb"
)

// leakWait is how long a leak check gives goroutines to end: a stopped
// server unwinds well inside it, even under the race detector.
const leakWait = 5 * time.Second

// Main is the TestMain of every serving package:
//
//	func TestMain(m *testing.M) { webtest.Main(m) }
//
// It runs the tests, then fails the binary if a goroutine that was not
// alive when they began is still alive leakWait later, printing each
// one's stack down to the frame that created it. A run that has already
// failed is not checked: its leftovers are the failure's. (A TestMain
// that returns exits with m.Run's code.)
func Main(m *testing.M) {
	before := goroutines()
	if m.Run() != 0 {
		return
	}
	if left := leftSince(before, leakWait); left != "" {
		fmt.Fprintf(os.Stderr, "FAIL: goroutines left running after the tests:\n\n%s\n", left)
		os.Exit(1)
	}
}

// NoNewGoroutines is Main's check at a point inside one test that does
// not run in parallel: the function it returns fails t, unless t has
// already failed, if a goroutine started since the call is still alive
// leakWait later.
//
//	defer webtest.NoNewGoroutines(t)()
func NoNewGoroutines(t testing.TB) func() {
	t.Helper()
	before := goroutines()
	return func() {
		t.Helper()
		if t.Failed() {
			return
		}
		if left := leftSince(before, leakWait); left != "" {
			t.Errorf("goroutines left running:\n\n%s", left)
		}
	}
}

// NoOpenConns fails t if db still has a connection open after the test's
// later cleanups, which run first: call it before registering those that
// close what holds the connections, a tier, a server or an instance.
func NoOpenConns(t testing.TB, db *sqldb.DB) {
	t.Cleanup(func() {
		if n := db.OpenConns(); n != 0 {
			t.Errorf("%d database connections still open", n)
		}
	})
}

// KVDB opens a zero-cost database with one table, kv (id Int primary
// key, v String), holding ids 1 to rows, each with value v: the fixture
// of the server, tier and fault tests. It registers NoOpenConns for it.
func KVDB(t testing.TB, rows int, v string) *sqldb.DB {
	t.Helper()
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	NoOpenConns(t, db)
	db.MustCreateTable(sqldb.Schema{
		Table:      "kv",
		Columns:    []sqldb.Column{{Name: "id", Type: sqldb.Int}, {Name: "v", Type: sqldb.String}},
		PrimaryKey: "id",
	})
	c := db.Connect()
	defer c.Close()
	for id := 1; id <= rows; id++ {
		if _, err := c.Exec("INSERT INTO kv (id, v) VALUES (?, ?)", id, v); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// leftSince waits up to wait for every goroutine not in before to end,
// and returns the stacks of those still alive then, or "".
func leftSince(before map[string]string, wait time.Duration) string {
	var left []string
	WaitUntil(wait, func() bool {
		left = left[:0]
		for id, stack := range goroutines() {
			if _, old := before[id]; !old {
				left = append(left, stack)
			}
		}
		return len(left) == 0
	})
	slices.Sort(left)
	return strings.Join(left, "\n\n")
}

// goroutines returns the stack of every live goroutine, keyed by
// "goroutine <id>", the head of its first line.
func goroutines() map[string]string {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	all := map[string]string{}
	for _, stack := range strings.Split(string(buf[:n]), "\n\n") {
		id, _, _ := strings.Cut(stack, " [")
		all[id] = stack
	}
	return all
}
