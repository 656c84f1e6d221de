package variant

import (
	"fmt"
	"net"

	"stagedweb/internal/core"
	"stagedweb/internal/dbtier"
	"stagedweb/internal/sched"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/stage"
)

// Names of the variants.
const (
	// Unmodified is the baseline thread-per-request server.
	Unmodified = "unmodified"
	// Modified is the staged multi-pool server (the paper's proposal).
	Modified = "modified"
	// ModifiedNoReserve is the staged server with the t_reserve feedback
	// controller ablated: Modified with minreserve=0 forced, a floor the
	// controller never leaves.
	ModifiedNoReserve = "modified-noreserve"
)

// Probe names exported by the built-in variants.
const (
	// ProbeQueueSingle is the baseline's single request queue (Figure 7).
	ProbeQueueSingle = "queue.single"
	// ProbeQueueGeneral is the staged general dynamic queue (Figure 8a).
	ProbeQueueGeneral = "queue.general"
	// ProbeQueueLengthy is the staged lengthy dynamic queue (Figure 8b).
	ProbeQueueLengthy = "queue.lengthy"
	// ProbeReserve is the controller's current t_reserve (Table 2).
	ProbeReserve = "sched.reserve"
	// ProbeSpare is the general pool's current spare workers (t_spare).
	ProbeSpare = "sched.spare"
	// ProbeDispatchGeneral counts Table 1 dispatches to the general pool.
	ProbeDispatchGeneral = "dispatch.general"
	// ProbeDispatchLengthy counts Table 1 dispatches to the lengthy pool.
	ProbeDispatchLengthy = "dispatch.lengthy"
	// ProbeDispatchLent counts general slots lent to lengthy waiters when
	// Table 1 held at their release.
	ProbeDispatchLent = "dispatch.lent"
	// ProbeServed counts completed requests.
	ProbeServed = "served.total"
	// ProbeDBInUse is the database tier's in-use connection gauge.
	ProbeDBInUse = "db.inuse"
	// ProbeDBWait counts connection acquisitions that had to block.
	ProbeDBWait = "db.wait"
	// ProbeDBQueries counts statements executed across all backends.
	ProbeDBQueries = "db.queries"
	// ProbeDBConflicts counts MVCC first-writer-wins aborts on the
	// primary (each is retried transparently inside sqldb).
	ProbeDBConflicts = "db.conflicts"
	// ProbeDBSnapshots counts snapshot reads on the primary — SELECTs
	// that ran against a fixed commit timestamp without table locks.
	ProbeDBSnapshots = "db.snapshots"
	// ProbeDBReplLag is the primary-to-slowest-replica commit gap, in
	// log entries (always 0 under repl=sync).
	ProbeDBReplLag = "db.repllag"
	// ProbeDBStmtHits counts primary statement-cache hits.
	ProbeDBStmtHits = "db.stmtcache.hit"
	// ProbeDBStmtMiss counts primary statement-cache misses (compiles).
	ProbeDBStmtMiss = "db.stmtcache.miss"
	// ProbeDBEjected counts replicas ejected from the read rotation
	// (dead or pathologically slow backends; cumulative).
	ProbeDBEjected = "db.ejected"
	// ProbeDBResync counts replicas reintegrated into the rotation
	// after catching up by log replay or snapshot resync (cumulative).
	ProbeDBResync = "db.resync"
	// ProbeDBPlanScan counts full-scan access paths executed across the
	// tier — statements (or join inners) the planner could not serve
	// from an index.
	ProbeDBPlanScan = "db.plan.scan"
	// ProbeDBPlanIndex counts index access paths executed across the
	// tier: point lookups, range scans, and index-nested-loop join
	// inners.
	ProbeDBPlanIndex = "db.plan.index"
	// ProbeDBPlanRows counts row versions visited by access paths —
	// the planner's honest I/O volume.
	ProbeDBPlanRows = "db.plan.rowsread"
)

// TierProvider is implemented by instances fronting a database tier;
// fault plans reach the tier through it to kill, slow, or starve
// backends.
type TierProvider interface {
	DBTier() *dbtier.Tier
}

// tierProbes builds the db.* probe set over a database tier.
func tierProbes(t *dbtier.Tier) []Probe {
	sum := func(counter func(*sqldb.DB) int64) func() float64 {
		return func() float64 { return float64(t.Sum(counter)) }
	}
	return []Probe{
		{ProbeDBInUse, func() float64 { return float64(t.InUse()) }},
		{ProbeDBWait, func() float64 { return float64(t.WaitCount()) }},
		{ProbeDBQueries, sum((*sqldb.DB).QueryCount)},
		{ProbeDBConflicts, sum((*sqldb.DB).Conflicts)},
		{ProbeDBSnapshots, sum((*sqldb.DB).SnapshotReads)},
		{ProbeDBReplLag, func() float64 { return float64(t.ReplLag()) }},
		{ProbeDBStmtHits, sum((*sqldb.DB).StmtCacheHits)},
		{ProbeDBStmtMiss, sum((*sqldb.DB).StmtCacheMisses)},
		{ProbeDBEjected, func() float64 { return float64(t.Ejected()) }},
		{ProbeDBResync, func() float64 { return float64(t.Resyncs()) }},
		{ProbeDBPlanScan, sum((*sqldb.DB).PlanScans)},
		{ProbeDBPlanIndex, sum((*sqldb.DB).PlanIndexLookups)},
		{ProbeDBPlanRows, sum((*sqldb.DB).PlanRowsRead)},
	}
}

// openTier is the one place a variant's database tier is built. It
// decodes the tier settings both variants share (replicas; dbconns,
// which defaults to the worker budget; mvcc; repl; indexes), finishes the
// decoder, and builds the tier over env.DB only once every setting is
// valid and env has an App and a DB, so a failed build starts no tier
// goroutine. indexes is decoded only to validate it: the harness acts on
// it during population (IndexesEnabled), before replicas are cloned.
func openTier(env Env, d *Decoder, name string, budget int) (*dbtier.Tier, error) {
	replicas := d.Int("replicas", 1)
	conns := d.Int("dbconns", budget)
	mvcc := d.Bool("mvcc", false)
	async := d.Enum("repl", "sync", "sync", "async") == "async"
	d.Bool("indexes", false)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if env.App == nil || env.DB == nil {
		return nil, fmt.Errorf("%s: nil App or DB", name)
	}
	if conns <= 0 {
		return nil, fmt.Errorf("%s: dbconns=%d: want a positive connection pool size", name, conns)
	}
	if mvcc {
		env.DB.SetMVCC(true)
	}
	return dbtier.New(env.DB, dbtier.Options{
		Replicas: replicas,
		Conns:    conns,
		Clock:    env.Clock,
		Scale:    env.Scale,
		Async:    async,
	}), nil
}

// IndexesEnabled reports whether the indexes=on|off setting asks for
// the extra TPC-W secondary indexes. The harness consults it during
// database population — before any variant builder runs — so it decodes
// just this key without the Decoder's strict unknown-key check.
func IndexesEnabled(explicit, defaults Settings) bool {
	d := NewSettingsDecoder(explicit, defaults)
	return d.Bool("indexes", false)
}

// variants is the table Lookup and Names read.
var variants = map[string]Variant{
	Unmodified:        buildUnmodified,
	Modified:          buildModified,
	ModifiedNoReserve: buildModifiedNoReserve,
}

// instance is the shared Instance implementation for the built-ins. It
// owns the tier its server was handed: Stop stops the server, then
// closes the tier.
type instance struct {
	serve  func(net.Listener) error
	stop   func()
	graph  *stage.Graph
	probes []Probe
	tier   *dbtier.Tier
}

func (i *instance) Serve(l net.Listener) error { return i.serve(l) }
func (i *instance) Stop()                      { i.stop(); i.tier.Close() }
func (i *instance) Graph() *stage.Graph        { return i.graph }
func (i *instance) Probes() []Probe            { return i.probes }
func (i *instance) DBTier() *dbtier.Tier       { return i.tier }

// buildUnmodified constructs the thread-per-request baseline.
//
// Settings: workers (pool size, default 80) and the tier settings of
// openTier, whose dbconns defaults to workers.
func buildUnmodified(env Env) (Instance, error) {
	d := NewDecoder(env)
	workers := d.Int("workers", 80)
	tier, err := openTier(env, d, Unmodified, workers)
	if err != nil {
		return nil, err
	}
	srv, err := server.NewBaseline(server.BaselineConfig{
		App:        env.App,
		DB:         tier.Conn(),
		Workers:    workers,
		Cost:       env.Cost,
		Clock:      env.Clock,
		Scale:      env.Scale,
		OnComplete: env.OnComplete,
	})
	if err != nil {
		tier.Close()
		return nil, err
	}
	return &instance{
		serve: srv.Serve,
		stop:  srv.Stop,
		graph: srv.Graph(),
		tier:  tier,
		probes: append([]Probe{
			{ProbeQueueSingle, func() float64 { return float64(srv.QueueLen()) }},
			{ProbeServed, func() float64 { return float64(srv.Served()) }},
		}, tierProbes(tier)...),
	}, nil
}

// buildModified constructs the staged five-pool server.
//
// Settings: header, static, general, lengthy, render (pool sizes, default
// 8/16/64/16/16), minreserve (the t_reserve floor, default 20; 0 ablates
// the reserve), cutoff (quick/lengthy boundary, paper time, default
// sched.DefaultCutoff), and the tier settings of openTier, whose dbconns
// defaults to general+lengthy.
func buildModified(env Env) (Instance, error) {
	d := NewDecoder(env)
	cfg := core.Config{
		App:            env.App,
		HeaderWorkers:  d.Int("header", 8),
		StaticWorkers:  d.Int("static", 16),
		GeneralWorkers: d.Int("general", 64),
		LengthyWorkers: d.Int("lengthy", 16),
		RenderWorkers:  d.Int("render", 16),
		MinReserve:     d.Int("minreserve", 20),
		Cutoff:         d.Duration("cutoff", sched.DefaultCutoff),
		Clock:          env.Clock,
		Scale:          env.Scale,
		Cost:           env.Cost,
		OnComplete:     env.OnComplete,
	}
	tier, err := openTier(env, d, Modified, cfg.GeneralWorkers+cfg.LengthyWorkers)
	if err != nil {
		return nil, err
	}
	cfg.DB = tier.Conn()
	srv, err := core.New(cfg)
	if err != nil {
		tier.Close()
		return nil, err
	}
	return &instance{
		serve: srv.Serve,
		stop:  srv.Stop,
		graph: srv.Graph(),
		tier:  tier,
		probes: append([]Probe{
			{ProbeQueueGeneral, func() float64 { return float64(srv.GeneralQueueLen()) }},
			{ProbeQueueLengthy, func() float64 { return float64(srv.LengthyQueueLen()) }},
			{ProbeReserve, func() float64 { return float64(srv.Reserve()) }},
			{ProbeSpare, func() float64 { return float64(srv.Spare()) }},
			{ProbeDispatchGeneral, func() float64 { g, _, _ := srv.DispatchCounts(); return float64(g) }},
			{ProbeDispatchLengthy, func() float64 { _, le, _ := srv.DispatchCounts(); return float64(le) }},
			{ProbeDispatchLent, func() float64 { _, _, lent := srv.DispatchCounts(); return float64(lent) }},
			{ProbeServed, func() float64 { return float64(srv.Served()) }},
		}, tierProbes(tier)...),
	}, nil
}

// buildModifiedNoReserve is the t_reserve ablation: the staged server
// with minreserve=0 merged over the caller's settings, so it wins over
// an explicit minreserve.
func buildModifiedNoReserve(env Env) (Instance, error) {
	env.Set = env.Set.Merge(Settings{"minreserve": "0"})
	return buildModified(env)
}
