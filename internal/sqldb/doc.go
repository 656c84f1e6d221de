// Package sqldb implements the embedded relational database that stands
// in for the paper's MySQL 5.0 server.
//
// It supports the SQL surface the TPC-W bookstore needs — CREATE-less
// schema registration, SELECT with WHERE / INNER JOIN / GROUP BY /
// ORDER BY / LIMIT / LIKE, aggregate functions, INSERT, UPDATE, and
// DELETE with '?' placeholders — plus the two behaviours the DSN'09
// evaluation hinges on:
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
//   - plan.go is the planner: it turns a selectStmt into a logical plan
//     and chooses a physical access path per table — full scan,
//     primary-key lookup, hash-index point lookup, ordered-index range
//     or order walk, or index-nested-loop join — by pricing each
//     candidate with the CostModel and keeping the cheapest (an index
//     path wins a cost tie). EXPLAIN renders the chosen plan. The plan
//     also carries everything else that does not depend on the
//     arguments, compiled once: resolved tables and lock order, the
//     WHERE conjuncts as closures split by join depth (compile.go),
//     output names and column positions ('*' expanded), ORDER BY /
//     GROUP BY / aggregate-argument positions. UPDATE and DELETE get a
//     dmlPlan of the same kind (exec.go). Per execution only the
//     argument vector, the table views and the lock or pin remain.
//   - operators.go + exec.go are the executor. A SELECT is one streaming
//     pass: access path, joins with predicate pushdown, and a sink that
//     receives every matched combination in a reused slice and copies
//     only what it keeps — project (rows straight into the result),
//     aggregate (group state updated in place), or ordered (Sort+Limit
//     as a bounded stable top-K: a max-heap of LIMIT+OFFSET rows on
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
//     type (compile.go): Int and String columns compare as int64s and
//     strings with the operator pre-resolved; NULLs, mixed numerics and
//     mistyped arguments fall back to the general compare, errors
//     included. LIKE folds its pattern once per execution and runs
//     %word% as a substring search.
//   - index.go maintains the secondary indexes (hash for equality,
//     ordered copy-on-write slabs for ranges and ordering)
//     transactionally under both engines; CreateIndex bumps the
//     database's index epoch, which invalidates cached plans so every
//     statement is replanned against the new physical schema.
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
// pointers. Writers are serialised by the commit critical section, so
// each of these has one writer and any number of readers. The table's
// idxMu covers only the secondary-index maps. The rows an access path
// visits are counted in the statement's own context and added to
// PlanRowsRead once, when its read pass ends.
//
// Two concurrency disciplines
// interpret that storage, selected by Options.MVCC / DB.SetMVCC:
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
// DB.Snapshot / DB.SnapshotAt expose pinned time-travel read views.
package sqldb
