// Package stagedweb is a reproduction of "Efficient Resource Management
// on Template-based Web Servers" (Courtwright, Yue, Wang; DSN 2009) as a
// production-quality Go library.
//
// The paper's contribution — a multithreaded web server whose requests
// are served by different threads in five thread pools, with database
// connections bound only to data-generation workers — lives in
// internal/core, expressed as a graph over the generic stage runtime
// (internal/stage) and the shared connection transport (internal/server).
// The thread-per-request baseline it is compared against lives in
// internal/server as a one-stage graph over the same two layers. Every
// substrate the evaluation depends on is implemented from scratch in
// this module: the subset of Django's template language the TPC-W pages
// use (internal/template), an embedded relational database with table
// locks and a latency cost model (internal/sqldb), an HTTP/1.1 wire
// implementation with two-phase header parsing (internal/httpwire), the
// TPC-W bookstore, its page mixes, and a dynamic emulated-browser fleet
// whose load-profile table makes offered load — steady state, flash
// crowds, open-loop arrivals — a named first-class value (internal/tpcw,
// internal/workload), and the experiment harness that regenerates the
// paper's tables and figures (internal/harness).
//
// Scaling past one database, internal/dbtier fronts a primary plus N-1
// cloned read replicas behind the same Conn-shaped Query/Exec surface
// handlers use (server.DBConn): reads route round-robin, DML commits on
// the primary and ships to replicas through its versioned replication
// log (synchronously by default, asynchronously with bounded staleness
// under repl=async), and every statement acquires a pooled per-backend
// connection through an instrumented path (the db.* probe series). It
// absorbs and replaces the former internal/dbpool package. Both server
// variants take replicas=N / dbconns=K purely as configuration (the
// variant builds the tier and hands the server a connection), and
// cmd/experiments -exp scaleout sweeps replica counts under the
// browsing and ordering mixes.
//
// The storage engine underneath (internal/sqldb) keeps every row as an
// immutable version chain stamped with a per-database commit timestamp.
// With mvcc=off (the default) statements take the paper's per-table
// reader-writer locks; with mvcc=on SELECTs run lock-free against a
// pinned snapshot and DML commits optimistically with first-writer-wins
// conflict detection and transparent retry — readers never block
// writers. cmd/experiments -exp mvcc sweeps the engine modes.
//
// Scaling past one server, internal/cluster puts a consistent-hash
// load balancer — itself a variant.Instance built on the stage runtime
// — in front of M shard-owning server instances, each a complete
// worker-pool/database stack over its slice of the TPC-W data. Routing
// policy stays with the application (tpcw.ShardKey routes
// customer-keyed pages by the same customer key
// tpcw.PopulateShard partitions rows by; best_sellers and
// admin_response fan out to every shard and wait for all of them,
// preserving read-your-writes), while the generic ring, balancer
// stage, keep-alive shard pools, and shard.*/lb.* probe series stay in
// internal/cluster. shards=M / lb=hash|rr are plain settings;
// cmd/experiments -exp shard sweeps shard counts under open-loop
// arrivals.
//
// Failure itself is a named, replayable input: internal/faults is a
// fault-plan table symmetric with the load profiles (replica-kill,
// shard-down, slow-backend, conn-drop, leak), scheduling every
// injection on the injected clock in paper time so plans replay
// deterministically under clock.Manual. The system survives them by
// construction — dbtier health-checks its replicas, ejects dead or
// pathologically slow ones from the read rotation, and reintegrates
// them by replication-log catch-up (or a snapshot resync when the log
// has been truncated past their watermark); connection acquisition and
// cross-shard fan-outs are deadline-bounded; the cluster balancer
// retries with backoff, trips per-shard circuit breakers, and routes
// key-less traffic around down shards. Faulted runs report an
// MTTR-style recovery time (paper seconds from injection until SLO
// attainment returns to its pre-fault baseline), and cmd/experiments
// -exp faults sweeps {no-fault, replica-kill, shard-down} across both
// replication modes. See the README's "Dependability" section.
//
// The invariants none of this encodes in types — timing flows through
// the injected clock.Clock, nothing sleeps while holding a lock — are
// tier-1 tests of internal/analysis, a test-only package that loads this
// module and benchmark/ once each and type-checks them from source. Its
// tests also fail on any exported name that nothing outside tests reads,
// any config field that nothing outside tests sets, and any probe name or
// settings key the README tables do not document. Genuinely wall-bound
// or by-design sites are rows of one exception table, each with its
// reason; see the README's "Static analysis" section.
//
// See README.md for the architecture, a walkthrough, design notes, and
// how to run the experiments. cmd/experiments regenerates each table and
// figure and runs each ablation; each package's micro-benchmarks sit
// beside its tests.
package stagedweb
