package sqldb

import "maps"

// Clone returns a new DB with the same clock, timescale, cost model,
// and concurrency mode, and a deep copy of db's schema and contents.
// See CloneSnapshot.
func (db *DB) Clone() *DB {
	clone, _ := db.CloneSnapshot()
	return clone
}

// CloneSnapshot clones the database at a single commit timestamp and
// returns that timestamp. The commit mutex is held for the copy, so the
// snapshot is consistent across every table and the auto-increment
// state matches the data exactly: a replica built from the clone that
// replays the replication log from asOf reproduces the original
// statement for statement, including slot layout, scan order, and
// auto-assigned primary keys. Version chains are flattened — the clone
// starts at commit timestamp zero with single-version rows (tombstoned
// slots preserved).
//
// The statement cache, apply hook, and replication log are not copied.
func (db *DB) CloneSnapshot() (*DB, int64) {
	clone := &DB{
		tables:    make(map[string]*table, 16),
		stmts:     newStmtCache(db.stmts.cap),
		clk:       db.clk,
		ts:        db.ts,
		cost:      db.cost,
		snapCount: make(map[int64]int),
	}
	clone.mvcc.Store(db.mvcc.Load())
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	asOf := db.commitTS.Load()
	for name, tbl := range db.tables {
		clone.tables[name] = tbl.cloneAt(asOf)
	}
	return clone, asOf
}

// cloneAt deep-copies one table as of commit timestamp ts, flattening
// each slot's version chain to a single version at timestamp zero.
// Caller holds the owning DB's commitMu, so no writer mutates the slot
// arena, the index maps, or nextAuto during the copy. Index buckets are
// shared, not copied — they are immutable (copy-on-write), so the clone
// and the original can never observe each other's additions.
func (t *table) cloneAt(ts int64) *table {
	nt := &table{
		schema:   t.schema,
		pkCol:    t.pkCol,
		nextAuto: t.nextAuto,
		indexes:  make(map[string]*hashIndex, len(t.indexes)),
		ordered:  make(map[string]*orderedIndex, len(t.ordered)),
	}
	src := t.slots.Load()
	arena := &slotArena{chunks: make([]*slotChunk, (src.n+slotChunkSize-1)/slotChunkSize), n: src.n}
	for i := range arena.chunks {
		arena.chunks[i] = new(slotChunk)
	}
	live := int64(0)
	for id := 0; id < src.n; id++ {
		head := reaped
		if data := src.at(id).visible(ts); data != nil {
			head = &rowVersion{data: append([]Value(nil), data...)}
			live++
		}
		arena.at(id).head.Store(head)
	}
	nt.slots.Store(arena)
	nt.live.Store(live)
	if t.pk != nil {
		nt.pk = t.pk.clone()
	}
	for name, idx := range t.indexes {
		nt.indexes[name] = &hashIndex{col: idx.col, m: maps.Clone(idx.m)}
	}
	for name, idx := range t.ordered {
		nt.ordered[name] = idx.clone()
	}
	return nt
}
