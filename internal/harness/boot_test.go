package harness

import (
	"net"
	"slices"
	"testing"

	"stagedweb/internal/httpwire"
	"stagedweb/internal/variant"
	"stagedweb/internal/webtest"
)

// newProductsQuery is the new-products page's statement
// (tpcw.App.newProducts), whose subject filter indexes=on indexes.
const newProductsQuery = `SELECT i_id, i_title, i_thumbnail, i_cost, i_pub_date, a_fname, a_lname FROM item
	JOIN author ON i_a_id = a_id WHERE i_subject = ? ORDER BY i_pub_date DESC, i_id ASC LIMIT 50`

// TestBootShardsAndIndexes boots two shards with the extra indexes: the
// balancer serves /home, every shard's database plans the new-products
// subject filter through the i_subject index, and Stop leaves no
// goroutine. A bad setting fails Boot with nothing left running.
func TestBootShardsAndIndexes(t *testing.T) {
	cfg := sweepConfig(variant.Modified).With(func(c *Config) {
		c.Set["shards"] = "2"
		c.Set["indexes"] = "on"
	})
	t.Run("serves", func(t *testing.T) {
		defer webtest.NoNewGoroutines(t)()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		sys, err := Boot(cfg, l, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := sys.Stop(); err != nil {
				t.Errorf("Stop: %v", err)
			}
		}()
		if sys.Balancer == nil || sys.Instance != sys.Balancer {
			t.Error("shards=2 served without the balancer in front")
		}
		resp, err := webtest.Get(l.Addr().String(), "/home")
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != httpwire.StatusOK {
			t.Errorf("GET /home: status %d", resp.Status)
		}
		if len(sys.DBs) != 2 {
			t.Fatalf("%d databases, want one per shard", len(sys.DBs))
		}
		for i, db := range sys.DBs {
			c := db.Connect()
			rs, err := c.Query("EXPLAIN "+newProductsQuery, "ARTS")
			c.Close()
			if err != nil {
				t.Fatal(err)
			}
			var plan []string
			for _, row := range rs.Rows {
				step, _ := row[0].(string)
				plan = append(plan, step)
			}
			if !slices.Contains(plan, "IndexLookup(item.i_subject = ?)") {
				t.Errorf("shard %d plans new-products as %q, want the i_subject index", i, plan)
			}
		}
	})
	t.Run("bad setting", func(t *testing.T) {
		defer webtest.NoNewGoroutines(t)()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		bad := cfg.With(func(c *Config) { c.Set["general"] = "0" })
		if sys, err := Boot(bad, l, nil); err == nil {
			_ = sys.Stop()
			t.Fatal("general=0 booted")
		}
		if _, err := l.Accept(); err == nil {
			t.Error("a failed Boot left its listener open")
		}
	})
}

// TestSplitShards: a shards setting, explicit or default, puts the
// balancer in front even at 1, and leaves the variant's settings; an
// empty count, one below one or one not an integer is an error.
func TestSplitShards(t *testing.T) {
	for _, tc := range []struct {
		set, defaults variant.Settings
		want          int
	}{
		{variant.Settings{"workers": "8"}, nil, 0},
		{variant.Settings{"shards": "1", "workers": "8"}, nil, 1},
		{variant.Settings{"workers": "8"}, variant.Settings{"shards": "2"}, 2},
		{variant.Settings{"shards": "3", "workers": "8"}, variant.Settings{"shards": "2"}, 3},
	} {
		n, set, err := splitShards(tc.set, tc.defaults)
		if err != nil || n != tc.want {
			t.Errorf("set %v, defaults %v: shards %d, err %v; want %d", tc.set, tc.defaults, n, err, tc.want)
		}
		if _, left := set["shards"]; left || set["workers"] != "8" {
			t.Errorf("set %v: variant settings %v, want only workers", tc.set, set)
		}
	}
	for _, bad := range []variant.Settings{{"shards": "0"}, {"shards": "two"}, {"shards": ""}} {
		if _, _, err := splitShards(bad, nil); err == nil {
			t.Errorf("%v accepted", bad)
		}
		if _, _, err := splitShards(nil, bad); err == nil {
			t.Errorf("default %v accepted", bad)
		}
	}
}
