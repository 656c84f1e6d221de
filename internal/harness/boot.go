package harness

import (
	"fmt"
	"net"
	"strconv"
	"strings"

	"stagedweb/internal/clock"
	"stagedweb/internal/cluster"
	"stagedweb/internal/dbtier"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
)

// System is one running system under test, as Boot started it.
type System struct {
	// Instance is what the listener serves: the variant's instance, or
	// the balancer in front of one instance per shard.
	Instance variant.Instance
	Balancer *cluster.Balancer // nil unless sharded
	Tiers    []*dbtier.Tier    // the shards' database tiers
	DBs      []*sqldb.DB       // the shards' primaries, in shard order
	Counts   tpcw.Counts       // the population's, the same on every shard
	// Clock is the one clock of the system: its databases, variants and
	// balancer run on it, and Run paces the load, the faults, the
	// sampler and the run's windows on it.
	Clock clock.Clock

	done     chan struct{} // closed when Serve returns
	serveErr error         // why Serve returned; set before done closes
}

// Boot starts the system cfg describes, on clock.Precise, and serves it
// on l: per shard, a database holding the catalog and the customers the
// ring assigns the shard, the extra indexes if indexes is on, and the
// variant; and the balancer in front whenever a shards setting is
// present, even shards=1, so a sharded sweep's baseline cell pays the
// same hop as its scaled cells. onComplete receives every completion.
// Boot owns l: Stop closes it, as does a failed Boot, after stopping
// whatever it started.
func Boot(cfg Config, l net.Listener, onComplete func(server.CompletionEvent)) (_ *System, err error) {
	var insts []variant.Instance
	defer func() {
		if err != nil {
			for _, inst := range insts {
				inst.Stop()
			}
			_ = l.Close()
		}
	}()
	v, ok := variant.Lookup(cfg.Variant)
	if !ok {
		return nil, fmt.Errorf("harness: unknown variant %q (have: %s)",
			cfg.Variant, strings.Join(variant.Names(), ", "))
	}
	shards, set, err := splitShards(cfg.Set, cfg.Defaults)
	if err != nil {
		return nil, err
	}
	var ring *cluster.Ring
	if shards > 0 {
		if ring, err = cluster.NewRing(shards, 0); err != nil {
			return nil, err
		}
	}
	sys := &System{Clock: clock.Precise{}, done: make(chan struct{})}
	for s := range max(shards, 1) {
		db := sqldb.Open(sqldb.Options{Clock: sys.Clock, Timescale: cfg.Scale, Cost: &cfg.Cost})
		if err := tpcw.CreateTables(db); err != nil {
			return nil, err
		}
		var owns func(int) bool
		if ring != nil {
			owns = func(cID int) bool { return ring.Owner(tpcw.CustomerKey(cID)) == s }
		}
		if sys.Counts, err = tpcw.PopulateShard(db, cfg.Populate, owns); err != nil {
			return nil, err
		}
		// On the primary before the variant is built, so replicas
		// cloned from it inherit the indexes.
		if variant.IndexesEnabled(set, cfg.Defaults) {
			if err := tpcw.CreateExtraIndexes(db); err != nil {
				return nil, err
			}
		}
		sys.DBs = append(sys.DBs, db)
	}

	app := tpcw.NewApp(sys.Counts, nil)
	for _, db := range sys.DBs {
		inst, err := v.Build(variant.Env{App: app, DB: db, Clock: sys.Clock, Scale: cfg.Scale,
			Cost: cfg.Work, OnComplete: onComplete, Set: set, Defaults: cfg.Defaults})
		if err != nil {
			return nil, err
		}
		insts = append(insts, inst)
		if tp, ok := inst.(variant.TierProvider); ok && tp.DBTier() != nil {
			sys.Tiers = append(sys.Tiers, tp.DBTier())
		}
	}
	sys.Instance = insts[0]
	if ring != nil {
		if sys.Balancer, err = cluster.New(cluster.Options{Shards: shards, Clock: sys.Clock, Scale: cfg.Scale},
			insts, func(path string, q map[string]string) cluster.Decision {
				key, fanout := tpcw.ShardKey(path, q)
				return cluster.Decision{Key: key, Fanout: fanout}
			}); err != nil {
			return nil, err
		}
		sys.Instance = sys.Balancer
	}
	go func() {
		sys.serveErr = sys.Instance.Serve(l)
		close(sys.done)
	}()
	return sys, nil
}

// Done is closed when Serve has returned: after Stop, or when the
// listener fails.
func (s *System) Done() <-chan struct{} { return s.done }

// Stop stops the served instance (the balancer stops its own shards),
// waits for Serve to return, and reports Serve's error: nil after a
// clean stop. A second call reports the same.
func (s *System) Stop() error {
	s.Instance.Stop()
	<-s.done
	return s.serveErr
}

// splitShards reads the shards setting, from set or else defaults, and
// returns set without it: it is the cluster's shape, not a variant
// setting. 0 means neither holds it, so no balancer goes in front.
func splitShards(set, defaults variant.Settings) (int, variant.Settings, error) {
	_, explicit := set["shards"]
	_, lowered := defaults["shards"]
	v := variant.NewSettingsDecoder(set, defaults).String("shards", "")
	set = set.Clone()
	delete(set, "shards")
	if !explicit && !lowered {
		return 0, set, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, nil, fmt.Errorf("harness: setting shards=%q: want an integer >= 1", v)
	}
	return n, set, nil
}
