package main

import (
	"fmt"
	"net"

	"stagedweb/internal/clock"
	"stagedweb/internal/cluster"
	"stagedweb/internal/dbtier"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
	"stagedweb/internal/webtest"
)

// buildOpts are the knobs a pass turns on one system build.
type buildOpts struct {
	variant string // registered variant name; empty means variant.Modified
	// appClock is handed to tpcw.NewApp; the golden replay fixes it so
	// timestamps rendered into pages repeat.
	appClock clock.Clock
	// wrapApp and onComplete are the traced pass's public seams.
	wrapApp    func(server.App) server.App
	onComplete func(server.CompletionEvent)
}

// system is one running system under test.
type system struct {
	addr   string
	inst   variant.Instance   // what the listener serves: a variant instance or the balancer
	insts  []variant.Instance // the variant instances behind it (one per shard)
	bal    *cluster.Balancer  // nil unless sharded
	tiers  []*dbtier.Tier
	dbs    []*sqldb.DB
	counts tpcw.Counts
	served chan error
}

// buildSystem boots a workload's system under test exactly as
// harness.Run does: sqldb.Open → tpcw.PopulateShard (+ extra indexes) →
// variant.Lookup(..).Build → Instance.Serve, with cluster.New in front
// for the sharded case.
func buildSystem(w workload, o buildOpts) (*system, error) {
	name := o.variant
	if name == "" {
		name = variant.Modified
	}
	v, ok := variant.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown variant %q", name)
	}
	nShards := 1
	var ring *cluster.Ring
	if w.shards > 0 {
		nShards = w.shards
		var err error
		if ring, err = cluster.NewRing(nShards, 0); err != nil {
			return nil, err
		}
	}
	sys := &system{served: make(chan error, 1)}
	for s := 0; s < nShards; s++ {
		cost := w.cost
		db := sqldb.Open(sqldb.Options{Clock: clock.Precise{}, Timescale: w.scale, Cost: &cost})
		if err := tpcw.CreateTables(db); err != nil {
			return nil, err
		}
		var owns func(int) bool
		if ring != nil {
			s := s
			owns = func(cID int) bool { return ring.Owner(tpcw.CustomerKey(cID)) == s }
		}
		counts, err := tpcw.PopulateShard(db, w.populate, owns)
		if err != nil {
			return nil, err
		}
		// Before the variant is built, so replicas cloned from the
		// primary inherit the indexes.
		if variant.IndexesEnabled(w.set, nil) {
			if err := tpcw.CreateExtraIndexes(db); err != nil {
				return nil, err
			}
		}
		sys.counts = counts
		sys.dbs = append(sys.dbs, db)
	}
	var app server.App = tpcw.NewApp(sys.counts, o.appClock)
	if o.wrapApp != nil {
		app = o.wrapApp(app)
	}
	for _, db := range sys.dbs {
		inst, err := v.Build(variant.Env{
			App:        app,
			DB:         db,
			Clock:      clock.Precise{},
			Scale:      w.scale,
			Cost:       w.work,
			OnComplete: o.onComplete,
			Set:        w.set,
			Defaults:   w.defaults,
		})
		if err != nil {
			sys.stopInstances()
			return nil, err
		}
		sys.insts = append(sys.insts, inst)
		if tp, ok := inst.(variant.TierProvider); ok && tp.DBTier() != nil {
			sys.tiers = append(sys.tiers, tp.DBTier())
		}
	}
	sys.inst = sys.insts[0]
	if w.shards > 0 {
		opts := cluster.Options{Shards: w.shards, LB: cluster.LBHash, Clock: clock.Precise{}, Scale: w.scale}
		bal, err := cluster.New(opts, sys.insts, func(path string, q map[string]string) cluster.Decision {
			key, fanout := tpcw.ShardKey(path, q)
			return cluster.Decision{Key: key, Fanout: fanout}
		})
		if err != nil {
			sys.stopInstances()
			return nil, err
		}
		sys.bal, sys.inst = bal, bal
	}
	l, addr, err := webtest.Listen()
	if err != nil {
		sys.stopInstances()
		return nil, err
	}
	sys.addr = addr
	go func(l net.Listener) { sys.served <- sys.inst.Serve(l) }(l)
	return sys, nil
}

func (s *system) stopInstances() {
	for _, inst := range s.insts {
		inst.Stop()
	}
}

// stop shuts the system down and waits for its accept loop to return.
func (s *system) stop() error {
	s.inst.Stop() // the balancer stops its shards itself
	return <-s.served
}

// probes indexes the served instance's gauges by probe name.
func (s *system) probes() map[string]func() float64 {
	out := map[string]func() float64{}
	for _, p := range s.inst.Probes() {
		out[p.Name] = p.Gauge
	}
	return out
}
