package sqldb

import (
	"maps"
	"slices"
	"sync/atomic"
)

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
// The statement cache and replication log are not copied.
func (db *DB) CloneSnapshot() (*DB, int64) {
	clone := &DB{
		tables:    make(map[string]*table, 16),
		stmts:     newStmtCache(),
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
// arena, the index maps, or nextAuto during the copy. Index buckets and
// ordered runs are shared, not copied, each capped at its length: both
// sides append past it, the clone into fresh copies, so neither can
// observe the other's additions. String boxes are shared too, and
// immutable: the clone's dictionaries start as copies of the original's,
// so the rows it adds keep sharing them, and its versions keep their
// codes, which those copies still give out.
func (t *table) cloneAt(ts int64) *table {
	nt := &table{
		schema:   t.schema,
		pkCol:    t.pkCol,
		nextAuto: t.nextAuto,
		indexes:  make(map[string]*hashIndex, len(t.indexes)),
		ordered:  make(map[string]*orderedIndex, len(t.ordered)),
		dicts:    make([]map[string]dictEntry, len(t.dicts)),
		codeSlot: t.codeSlot,
		intCols:  t.intCols,
		grams:    make([]atomic.Pointer[postings], len(t.grams)),
	}
	for ci, d := range t.dicts {
		nt.dicts[ci] = maps.Clone(d) // nil stays nil: a plain column
	}
	src := t.slots.Load()
	arena := &slotArena{chunks: make([]*slotChunk, (src.n+slotChunkSize-1)/slotChunkSize), n: src.n}
	for i := range arena.chunks {
		arena.chunks[i] = new(slotChunk)
	}
	live := int64(0)
	for id := 0; id < src.n; id++ {
		head := reaped
		if v := src.at(id).version(ts); v != nil {
			head = nt.newVersion(append([]Value(nil), v.data()...), 0, v.codes)
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
		m := make(map[Value][]int, len(idx.m))
		for v, b := range idx.m {
			m[v] = slices.Clip(b)
		}
		nt.indexes[name] = &hashIndex{col: idx.col, m: m}
	}
	for name, idx := range t.ordered {
		nt.ordered[name] = idx.clone()
	}
	return nt
}
