package sqldb

import (
	"fmt"
	"sync"
)

// Snapshot is a read-only view of the database at a fixed commit
// timestamp. Creation takes no lock and copies nothing — storage is
// versioned, so a snapshot query walks the same version chains live
// statements do, just at an older timestamp.
//
// An open Snapshot pins its timestamp against version garbage
// collection: writers keep every version a pinned reader could still
// resolve. Close the snapshot when done — a leaked snapshot holds
// version chains on hot rows alive indefinitely. Versions committed
// and pruned before the snapshot was created are gone; SnapshotAt with
// a timestamp older than the prune horizon resolves those rows at
// their oldest retained version.
type Snapshot struct {
	db        *DB
	ts        int64
	closeOnce sync.Once
}

// SnapshotAt returns a read view pinned at an explicit commit
// timestamp.
func (db *DB) SnapshotAt(ts int64) *Snapshot {
	db.pinSnapshot(ts)
	return &Snapshot{db: db, ts: ts}
}

// Snapshot returns a read view pinned at the current commit timestamp.
func (db *DB) Snapshot() *Snapshot { return &Snapshot{db: db, ts: db.pinCurrent()} }

// TS reports the snapshot's commit timestamp.
func (s *Snapshot) TS() int64 { return s.ts }

// Close releases the snapshot's pin on version garbage collection.
// Idempotent. Queries after Close still run but lose the retention
// guarantee.
func (s *Snapshot) Close() {
	s.closeOnce.Do(func() { s.db.unpinSnapshot(s.ts) })
}

// Query executes a SELECT against the snapshot. It never takes a table
// lock in either concurrency mode and never blocks writers; results are
// exactly the rows visible at TS.
func (s *Snapshot) Query(sql string, args ...any) (*ResultSet, error) {
	s.db.queries.Inc()
	s.db.snapshotReads.Inc()
	st, err := s.db.prepare(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*selectStmt)
	if !ok {
		return nil, fmt.Errorf("sqldb: Snapshot.Query requires SELECT, got %q", sql)
	}
	ec, err := newExecCtx(args)
	if err != nil {
		return nil, err
	}
	return s.db.execSelectAt(sel, ec, s.ts)
}
