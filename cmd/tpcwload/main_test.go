package main

import (
	"fmt"
	"net"
	"testing"

	"stagedweb/internal/clock"
	"stagedweb/internal/harness"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
	"stagedweb/internal/webtest"
)

func TestMain(m *testing.M) { webtest.Main(m) }

// startServer boots the staged variant over a small zero-cost TPC-W
// database and returns its address and population.
func startServer(t *testing.T) (string, tpcw.Counts) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := harness.Boot(harness.Config{
		Variant:  variant.Modified,
		Scale:    clock.Timescale(200),
		Populate: tpcw.PopulateConfig{Items: 150, Customers: 40, Orders: 40},
	}, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	webtest.NoOpenConns(t, sys.DBs[0])
	t.Cleanup(func() { _ = sys.Stop() })
	return l.Addr().String(), sys.Counts
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
