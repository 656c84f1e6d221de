// Package sqldb implements the embedded relational database that stands
// in for the paper's MySQL 5.0 server.
//
// Its SQL is the SQL internal/tpcw issues, and no more: SELECT of *,
// columns or SUM(col) AS name FROM t [JOIN t ON col = col]..., WHERE as an
// AND of "col = v", "col > v" and "col LIKE v" (v a '?' placeholder or a
// literal), one-column GROUP BY, ORDER BY over result columns, LIMIT n;
// INSERT ... VALUES, UPDATE ... SET ... WHERE, DELETE ... WHERE; EXPLAIN
// SELECT; column types INT, FLOAT, STRING and TIME, registered through
// Schema rather than CREATE. Any other form fails when its statement is
// prepared, with an error that names it. On top of that it has the two
// behaviours the DSN'09 evaluation hinges on:
//
//   - per-table reader/writer locks, so the admin-response page's UPDATE
//     on the hot item table must wait for in-flight read queries exactly
//     as the paper describes; and
//   - an injectable latency CostModel that charges paper-time for rows
//     scanned, index probes, sorts, and writes, reproducing the paper's
//     fast/slow page dichotomy (indexed point queries vs. large scans)
//     at laptop scale.
//
// # Layering
//
// Query processing is split into a plan layer and an exec layer:
//
//   - lexer.go / parser.go / ast.go parse SQL into an AST once per
//     statement text; stmtcache.go caches the parsed and planned
//     statement, keyed by the index epoch.
//   - plan.go is the planner: it turns a selectStmt into a physical
//     plan by a fixed rule that reads only which columns are indexed,
//     never a table's size — primary-key lookup for a "= v" on the key,
//     else a secondary-index lookup for the first "= v" on an indexed
//     column, else an ordered-index walk for the first "> v" on an
//     ordered-indexed column, else a full scan — and probes every joined
//     table through its primary key; a JOIN on any other column fails
//     at prepare. EXPLAIN renders the chosen plan. The plan
//     also carries everything else that does not depend on the
//     arguments, compiled once: resolved tables and lock order, the
//     WHERE conjuncts as closures split by join depth (compile.go),
//     output names and column positions ('*' expanded), ORDER BY /
//     GROUP BY / SUM positions. UPDATE and DELETE get a
//     dmlPlan of the same kind (exec.go). Per execution only the
//     argument vector, the table views and the lock or pin remain.
//   - operators.go + exec.go are the executor. A SELECT is one streaming
//     pass: access path, joins with predicate pushdown, and a sink that
//     receives every matched combination in a reused slice and copies
//     only what it keeps — project (rows straight into the result),
//     aggregate (group sums updated in place), or ordered (Sort+Limit
//     as a bounded stable top-K: a max-heap of LIMIT rows on
//     (sort keys, arrival number); the arrival number makes the order
//     total, so the result equals a stable sort of everything followed
//     by the slice, ties included). Probes allocate nothing. Every
//     predicate is re-checked against the row version actually visible
//     to the statement, so index entries only ever have to be
//     stale-tolerant hints. The cost counters a statement accumulates
//     are those of the materialising executor this replaced, statement
//     for statement — sorted counts every matched row, whatever the
//     heap compared.
//   - Nothing is allocated per row. A row that displaces the top-K's
//     worst is built in the evicted row's storage, and rows are cut
//     from slabs that double, so ORDER BY ... LIMIT k allocates
//     O(log k) whatever the table size. The fixed-size state of a
//     SELECT (context, run, project sink) lives by value on the Conn,
//     zeroed when Query returns: a parked connection pins no row, view
//     or result. The sinks whose buffers grow with the rows they hold
//     (ordered, aggregate) are pooled across connections instead — a
//     server parks one connection per worker — and emptied by finish;
//     an aggregate's kept rows are copied out in one allocation.
//   - Result rows are the caller's, cells included. They share backing
//     storage with their neighbours, so each is capped at its length
//     (row[lo:hi:hi]): appending to one copies it. Columns is shared
//     with the cached plan and read-only.
//   - Comparisons are picked at prepare time from the column's declared
//     type (compile.go): = and > on Int and String columns compare as
//     int64s and strings with the operator pre-resolved; NULLs, mixed numerics and
//     mistyped arguments fall back to the general compare, errors
//     included. LIKE folds its pattern once per execution and runs
//     %word% as a substring search.
//   - index.go maintains the secondary indexes (hash for equality,
//     ordered sorted runs for "col > v", both appended to in place
//     past the lengths their readers hold) transactionally under both
//     engines, and keep no statistics; CreateIndex bumps the database's
//     index epoch, which invalidates cached plans so every statement is
//     replanned against the new physical schema.
//
// Storage is row-versioned: every committed DML statement stamps the
// versions it installs with a dense per-database commit timestamp, and
// a statement's rows are all-or-nothing — no reader at any timestamp
// observes half of a multi-row UPDATE.
//
// The read path from a key to a row (table.go, pkindex.go) takes no lock
// and writes no shared memory, in either discipline below: it runs once
// per joined row of every scan page and once per statement of every
// quick page. Row slots live by value in fixed-size chunks, published as
// an immutable (chunk list, count) header that writers replace; the
// primary-key index is a flat array of slot numbers over the key window
// the table occupies, grown by copy and publish, with a locked map only
// for keys outside that window; version chains are walked through atomic
// pointers. A version carries its row's primary key unboxed, so a probe
// checks the key in the version it reached instead of in the row's cells.
// It also carries the cells of the table's first two Int columns other
// than the key, in schema order, unboxed with a presence bit each (clear
// for NULL). An = or > conjunct on one of them against an int64 operand
// compares the version's copy, in SELECT and DML alike (allHold), and a
// primary-key join step whose outer column is one of them, or the outer
// table's key, probes with the key read off the outer version; a NULL
// cell, a float or NULL operand, and any other join column take the
// boxed cell. A key given out again (deleted and re-inserted, or moved onto) keeps its
// older slots in a locked side map, read only when a probe's slot does not
// hold the key at its snapshot. Writers are serialised by the commit
// critical section, so each of these has one writer and any number of
// readers. The table's idxMu covers only the secondary-index maps. The
// rows an access path visits are counted in the statement's own context
// and added to PlanRowsRead once, when its read pass ends.
//
// At commit, every String cell is replaced by the box its column's
// dictionary holds for the same string, so equal strings share one box.
// The dictionary numbers its strings 1..255 in first-seen order, and a
// version carries the codes of its cells in a table's first 8 String
// columns (0: NULL or none). With the row held as a pointer and a 16-bit
// width, that makes a version 64 bytes, the size class whose objects are
// line-aligned: one version, one cache line. A
// SELECT conjunct on such a column (=, > or LIKE, against a literal or
// placeholder, as every conjunct is) reads the code from the version
// the access path already holds and runs once per distinct value per
// execution. A column drops its dictionary for good on its 256th distinct
// string; rows committed after that carry code 0 and compare as before.
//
// Codes also index their own rows (postings.go). A coded column that a
// SELECT filters on gets postings, built on first use under the commit
// critical section by walking every slot's version chain: per code, the
// set of slots some version of which has carried that code, with code 0
// for NULL and strings past the cut-off. A commit adds a slot to its
// code's set before it publishes the version, and nothing takes it out,
// so a set is a stale-tolerant hint like every index here and holds at
// every snapshot. When the first conjunct of a full scan, or of a
// primary-key join step, is coded, the execution evaluates it once per
// dictionary string and takes the union of the sets of the codes that
// pass with code 0's. The scan is charged for every slot, as before, and
// visits only the union's, in slot order; the join step rejects a probe
// whose slot is outside the union, unless the key has had other slots,
// for the one probe it has already charged, without loading the slot.
// Only the first conjunct sieves, so no other conjunct's error is hidden.
// A string the conjunct errors on and a union over three quarters of the
// table leave the plain loop. Postings cost 8 bytes per 64 slots per
// code of each column they are built for; a clone builds its own.
//
// A column whose dictionary was gone before its code postings were built
// (titles), or that has no code slot, gets trigram postings instead when
// a SELECT filters it with LIKE: per trigram of three ASCII letters,
// folded as LIKE folds them, the set of slots some version of which held
// a string containing it, built, published and kept up to date as code
// postings are. A row matches a pattern only if it holds every letter
// trigram of the pattern's literal runs, so a LIKE that is the first
// conjunct of a full scan or a primary-key join step visits or probes
// only the intersection of those sets, charged as the plain loop is. A
// pattern with no letter trigram, a non-string argument and an
// intersection over three quarters of the table leave the plain loop.
// They cost 8 bytes per 64 slots per letter trigram the column holds (at
// most 26³): about 150 KB for 10 000 TPC-W titles.
//
// Two concurrency disciplines
// interpret that storage, selected by DB.SetMVCC:
//
//   - mvcc=off (default): any number of connections may execute
//     concurrently; each statement locks the tables it touches (read or
//     write) for its duration, like MySQL's MyISAM table locking that
//     the paper's admin page contends on.
//   - mvcc=on: SELECTs run lock-free against a pinned snapshot of the
//     current commit timestamp, and DML commits optimistically with
//     first-writer-wins conflict detection (ErrWriteConflict, counted
//     by DB.Conflicts) and transparent retry inside Conn.Exec. Readers
//     never block writers and writers never block readers; cost-model
//     sleeps happen outside the engine's commit critical section.
//
// Either way every commit appends to the optional versioned replication
// log (DB.EnableReplLog), which internal/dbtier ships to replicas, and
// DB.Snapshot exposes a read view pinned at the current timestamp.
package sqldb
