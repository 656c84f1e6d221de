package main

import (
	"strings"
	"testing"

	"stagedweb/internal/httpwire"
	"stagedweb/internal/variant"
	"stagedweb/internal/webtest"
)

func TestMain(m *testing.M) { webtest.Main(m) }

// TestUnknownMode: a -mode that names no variant fails before the
// database is populated, and the error lists every variant name.
func TestUnknownMode(t *testing.T) {
	err := run([]string{"-mode", "staged", "-addr", "127.0.0.1:0"})
	if err == nil {
		t.Fatal("unknown mode accepted")
	}
	for _, name := range variant.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// TestServesShardsWithIndexes: -set shards=2 serves through the
// balancer, -set indexes=on builds the extra indexes on every shard,
// and Stop shuts it all down, the stats printer with it.
func TestServesShardsWithIndexes(t *testing.T) {
	sys, addr, err := boot([]string{"-addr", "127.0.0.1:0", "-items", "100", "-customers", "30", "-orders", "20",
		"-scale", "1000", "-stats", "1ms", "-set", "shards=2", "-set", "indexes=on"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sys.Stop(); err != nil {
			t.Errorf("Stop: %v", err)
		}
	}()
	if sys.Balancer == nil || sys.Instance != sys.Balancer || len(sys.DBs) != 2 {
		t.Fatalf("served %T over %d databases, want the balancer over 2 shards", sys.Instance, len(sys.DBs))
	}
	for i, db := range sys.DBs {
		c := db.Connect()
		rs, err := c.Query("EXPLAIN SELECT i_id FROM item WHERE i_subject = ?", "ARTS")
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if plan, _ := rs.Rows[0][0].(string); plan != "IndexLookup(item.i_subject = ?)" {
			t.Errorf("shard %d plans the subject filter as %q, want the i_subject index", i, plan)
		}
	}
	resp, err := webtest.Get(addr, "/home")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpwire.StatusOK {
		t.Errorf("GET /home: status %d", resp.Status)
	}
}
