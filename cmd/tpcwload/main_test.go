package main

import (
	"fmt"
	"testing"

	"stagedweb/internal/clock"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
	"stagedweb/internal/webtest"
)

func TestMain(m *testing.M) { webtest.Main(m) }

// startServer serves the staged variant over a small TPC-W database and
// returns its address and population.
func startServer(t *testing.T) (string, tpcw.Counts) {
	t.Helper()
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	webtest.NoOpenConns(t, db)
	if err := tpcw.CreateTables(db); err != nil {
		t.Fatal(err)
	}
	counts, err := tpcw.Populate(db, tpcw.PopulateConfig{Items: 150, Customers: 40, Orders: 40})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := variant.Lookup(variant.Modified)
	inst, err := v.Build(variant.Env{App: tpcw.NewApp(counts, nil), DB: db, Scale: clock.Timescale(200)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Stop)
	l, addr, err := webtest.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = inst.Serve(l) }()
	return addr, counts
}

// TestRun drives the steady profile against a live server for 20 paper
// seconds, and checks that an unknown profile or profile setting fails
// the run before any load is offered.
func TestRun(t *testing.T) {
	addr, counts := startServer(t)
	args := []string{"-addr", addr, "-ebs", "2", "-duration", "20s", "-scale", "200",
		"-items", fmt.Sprint(counts.Items), "-customers", fmt.Sprint(counts.Customers)}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-load", "nosuch")); err == nil {
		t.Error("unknown -load accepted")
	}
	if err := run(append(args, "-load-set", "bogus=1")); err == nil {
		t.Error("unknown -load-set key accepted")
	}
}
