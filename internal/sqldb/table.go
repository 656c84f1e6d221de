package sqldb

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// latestTS is the snapshot timestamp that means "the newest committed
// version" — what lock-mode statements (which serialize through the
// table lock) read at.
const latestTS = int64(math.MaxInt64)

// rowVersion is one immutable version of a row. data == nil is a
// tombstone. begin is the commit timestamp at which this version became
// visible; prev points at the next-older version. prev is atomic only so
// the garbage-collection cut (pruning versions no active snapshot can
// reach) is safe against concurrent chain walks — the fields of a
// version are never modified after publication.
type rowVersion struct {
	data  []Value
	begin int64
	prev  atomic.Pointer[rowVersion]
}

// rowSlot is the stable identity of a row: a fixed slot index plus the
// head of its version chain. Slots are append-only; a deleted row keeps
// its slot (with a tombstone head) so slot indices, scan order, and
// clone replay stay deterministic.
type rowSlot struct {
	head atomic.Pointer[rowVersion]
}

// slotChunkSize is the number of slots allocated together.
const slotChunkSize = 256

// slotChunk holds slotChunkSize consecutive slots by value, so that a
// slot costs no allocation of its own and resolving slot id is one
// pointer hop: chunks[id/slotChunkSize][id%slotChunkSize].
type slotChunk [slotChunkSize]rowSlot

// slotArena is one published generation of a table's slots: the first n
// slots of chunks. The header is immutable once published; a newer
// generation shares the chunks (and, with spare capacity, the backing
// array of the chunk list) of the one before.
type slotArena struct {
	chunks []*slotChunk
	n      int
}

// at returns slot id, which must be below a.n.
func (a *slotArena) at(id int) *rowSlot {
	return &a.chunks[id/slotChunkSize][id%slotChunkSize]
}

// visible returns the row data as of snapshot ts: the newest version
// with begin <= ts, or nil if the row did not exist (or was deleted) at
// ts. Lock-free; safe concurrently with writers installing new heads.
func (s *rowSlot) visible(ts int64) []Value {
	for v := s.head.Load(); v != nil; v = v.prev.Load() {
		if v.begin <= ts {
			return v.data
		}
	}
	return nil
}

// table is the storage for one relation: an append-only arena of
// versioned row slots plus primary-key and secondary hash indexes.
//
// Two concurrency disciplines share this structure. In lock mode
// (mvcc=off, the paper's MySQL-like behavior) statements serialize
// through the per-table reader/writer lock for their whole
// cost-model-padded duration, exactly as before. In MVCC mode the table
// lock is never taken: readers resolve rows through immutable version
// chains at a fixed snapshot timestamp, and writers install new versions
// inside the DB-wide commit critical section (db.commitMu), which is
// held only for validation and version install — never for cost sleeps.
//
// The indexes are hints, not truth: entries are added and never removed,
// so a probe may return slots whose visible row no longer matches the
// indexed value (deleted rows, updated keys). Every access path re-checks
// the predicate against the visible row, which makes stale entries
// harmless. The primary-key index is lock-free for readers (see pkIndex)
// and no table-level lock covers it. idxMu guards the two secondary-index
// maps — which index exists on a column, and a hash index's buckets — and
// is held for map probes only.
type table struct {
	schema Schema
	pkCol  int // position of the primary key column, or -1

	lock sync.RWMutex // lock-mode table lock; unused under MVCC

	slots atomic.Pointer[slotArena] // published append-only slot arena
	live  atomic.Int64              // rows visible at the latest timestamp

	pk *pkIndex // nil without a primary key

	idxMu   sync.RWMutex // guards indexes and ordered map access
	indexes map[string]*hashIndex
	ordered map[string]*orderedIndex

	nextAuto int64 // auto-increment state; guarded by db.commitMu

	// tombs queues the slots whose tombstone is still linked to the
	// version it deleted, oldest first; guarded by db.commitMu. See
	// reapTombstones.
	tombs []int
}

// hashIndex is a secondary equality index with immutable buckets: add
// replaces the bucket slice instead of appending in place, so a bucket
// returned to a reader is a stable snapshot forever.
type hashIndex struct {
	col int
	m   map[Value][]int
}

// add registers id under v, copy-on-write. Duplicate ids (a value that
// flipped away and back across updates) are collapsed.
func (idx *hashIndex) add(v Value, id int) {
	old := idx.m[v]
	for _, got := range old {
		if got == id {
			return
		}
	}
	nb := make([]int, len(old), len(old)+1)
	copy(nb, old)
	idx.m[v] = append(nb, id)
}

func newTable(s Schema) *table {
	t := &table{
		schema:  s,
		pkCol:   -1,
		indexes: make(map[string]*hashIndex, len(s.Indexes)),
		ordered: make(map[string]*orderedIndex, len(s.Ordered)),
	}
	if s.PrimaryKey != "" {
		t.pkCol = s.colIndex(s.PrimaryKey)
		t.pk = newPKIndex()
	}
	for _, name := range s.Indexes {
		t.indexes[name] = &hashIndex{col: s.colIndex(name), m: make(map[Value][]int)}
	}
	for _, name := range s.Ordered {
		t.ordered[name] = newOrderedIndex(s.colIndex(name))
	}
	t.slots.Store(&slotArena{})
	return t
}

// tableView is a stable read view of one table at a snapshot timestamp:
// the slot arena as published at view creation plus the timestamp rows
// are resolved at. Slots appended after the view was taken are simply
// out of range, and versions committed after ts are skipped by the
// chain walk, so a view never sees a later write.
type tableView struct {
	tbl   *table
	ts    int64
	slots *slotArena
}

// view captures a read view at ts.
func (t *table) view(ts int64) tableView {
	return tableView{tbl: t, ts: ts, slots: t.slots.Load()}
}

// row returns the visible data for a slot id, or nil.
func (v tableView) row(id int) []Value {
	if uint(id) >= uint(v.slots.n) {
		return nil
	}
	return v.slots.at(id).visible(v.ts)
}

// size reports the slot count of the view (live rows plus tombstones).
func (v tableView) size() int { return v.slots.n }

// lookupPK returns the slot hint for a primary key value. The hint may
// be stale (deleted row, or a row whose key moved); callers must
// re-check the visible row.
func (v tableView) lookupPK(key int64) (int, bool) { return v.tbl.pkHint(key) }

// lookupIndex returns the slot hints for an indexed column value,
// trying the hash index first, then the ordered index. A hash bucket is
// returned as it is: buckets are immutable snapshots, never mutated
// after being handed out, so only the map access itself needs idxMu —
// and it does need it, commits write that map. An ordered probe appends
// its hits to (*buf)[:0] and returns that, so a caller that keeps buf
// between probes allocates nothing; the result is valid until buf's next
// use. visited is the number of index entries inspected (== len(ids) for
// a hash bucket, possibly more for an ordered probe), for honest probe
// pricing.
func (v tableView) lookupIndex(col string, val Value, buf *[]int) (ids []int, visited int, ok bool) {
	t := v.tbl
	t.idxMu.RLock()
	idx, hok := t.indexes[col]
	if hok {
		ids = idx.m[val]
	}
	oidx, ook := t.ordered[col]
	t.idxMu.RUnlock()
	if hok {
		return ids, len(ids), true
	}
	if ook {
		*buf, visited = oidx.state.Load().eq(val, (*buf)[:0])
		return *buf, visited, true
	}
	return nil, 0, false
}

// lookupOrdered returns the ordered index on col, if any.
func (v tableView) lookupOrdered(col string) (*orderedIndex, bool) {
	t := v.tbl
	t.idxMu.RLock()
	idx, ok := t.ordered[col]
	t.idxMu.RUnlock()
	return idx, ok
}

// hasIndex reports whether col is the primary key or a secondary
// (hash or ordered) index.
func (t *table) hasIndex(col string) bool {
	if t.pkCol >= 0 && t.schema.Columns[t.pkCol].Name == col {
		return true
	}
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	_, ok := t.indexes[col]
	if !ok {
		_, ok = t.ordered[col]
	}
	return ok
}

// hasOrdered reports whether col carries an ordered index.
func (t *table) hasOrdered(col string) bool {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	_, ok := t.ordered[col]
	return ok
}

// ---- commit-side mutation (all callers hold db.commitMu) ----

// slotAt returns the current slot for id.
func (t *table) slotAt(id int) *rowSlot { return t.slots.Load().at(id) }

// latestBegin reports the commit timestamp of the newest version of a
// slot — what first-writer-wins validation compares against the
// writer's snapshot.
func (t *table) latestBegin(id int) int64 {
	if v := t.slotAt(id).head.Load(); v != nil {
		return v.begin
	}
	return 0
}

// appendSlot publishes a new slot, whose only version is head, at the end
// of the arena. Readers holding an older published header never index
// past their captured count, so writing the next slot of a shared chunk
// (or the spare capacity of the shared chunk list) is safe; the atomic
// Store orders those writes before any reader that can see them.
func (t *table) appendSlot(head *rowVersion) int {
	cur := t.slots.Load()
	next := &slotArena{chunks: cur.chunks, n: cur.n + 1}
	if cur.n == len(cur.chunks)*slotChunkSize {
		next.chunks = append(cur.chunks, new(slotChunk))
	}
	next.at(cur.n).head.Store(head)
	t.slots.Store(next)
	return cur.n
}

// checkInsert validates an insert against current state without
// mutating anything: primary-key type and duplicate checks. Splitting
// validation from apply keeps a multi-row commit all-or-nothing.
func (t *table) checkInsert(row []Value) error {
	if t.pkCol < 0 || row[t.pkCol] == nil {
		return nil // auto-assigned keys cannot collide
	}
	key, ok := row[t.pkCol].(int64)
	if !ok {
		return fmt.Errorf("sqldb: table %q: primary key must be an integer", t.schema.Table)
	}
	if id, exists := t.pkHint(key); exists {
		if data := t.slotAt(id).visible(latestTS); data != nil && valuesEqual(data[t.pkCol], key) {
			return fmt.Errorf("sqldb: table %q: duplicate primary key %d", t.schema.Table, key)
		}
		// Stale hint (deleted row or moved key): the insert below remaps it.
	}
	return nil
}

// applyInsert installs a new row at commit timestamp ts and returns its
// slot id. The caller has run checkInsert; this cannot fail.
func (t *table) applyInsert(row []Value, ts int64) int {
	var key int64
	if t.pkCol >= 0 {
		if row[t.pkCol] == nil {
			t.nextAuto++
			row[t.pkCol] = t.nextAuto
		}
		if key = row[t.pkCol].(int64); key > t.nextAuto {
			t.nextAuto = key
		}
	}
	id := t.appendSlot(&rowVersion{data: row, begin: ts})
	if t.pk != nil {
		t.pk.set(key, id)
	}
	t.idxMu.Lock()
	for _, idx := range t.indexes {
		idx.add(row[idx.col], id)
	}
	for _, idx := range t.ordered {
		idx.add(row[idx.col], id)
	}
	t.idxMu.Unlock()
	t.live.Add(1)
	return id
}

// checkUpdate validates replacing slot id's row with newRow: primary-key
// type and duplicate checks against current state.
func (t *table) checkUpdate(id int, newRow []Value) error {
	if t.pkCol < 0 {
		return nil
	}
	newKey, ok := newRow[t.pkCol].(int64)
	if !ok {
		return fmt.Errorf("sqldb: table %q: primary key must be an integer", t.schema.Table)
	}
	old := t.slotAt(id).head.Load().data
	if old == nil {
		return fmt.Errorf("sqldb: update of deleted row %d", id)
	}
	if oldKey, _ := old[t.pkCol].(int64); oldKey == newKey {
		return nil
	}
	if hid, exists := t.pkHint(newKey); exists && hid != id {
		if data := t.slotAt(hid).visible(latestTS); data != nil && valuesEqual(data[t.pkCol], newKey) {
			return fmt.Errorf("sqldb: table %q: duplicate primary key %d", t.schema.Table, newKey)
		}
	}
	return nil
}

// applyUpdate installs newRow as the next version of slot id at commit
// timestamp ts, pruning chain versions older than horizon. The caller
// has run checkUpdate; this cannot fail.
func (t *table) applyUpdate(id int, newRow []Value, ts, horizon int64) {
	slot := t.slotAt(id)
	cur := slot.head.Load()
	old := cur.data
	var idxAdds bool
	for _, idx := range t.indexes {
		if !valuesEqual(old[idx.col], newRow[idx.col]) {
			idxAdds = true
			break
		}
	}
	if !idxAdds {
		for _, idx := range t.ordered {
			if !valuesEqual(old[idx.col], newRow[idx.col]) {
				idxAdds = true
				break
			}
		}
	}
	pkMoved := false
	var newKey int64
	if t.pkCol >= 0 {
		newKey = newRow[t.pkCol].(int64)
		if oldKey, _ := old[t.pkCol].(int64); oldKey != newKey {
			pkMoved = true
			if newKey > t.nextAuto {
				t.nextAuto = newKey
			}
		}
	}
	if pkMoved {
		// The old key's entry stays as a stale hint: readers at older
		// snapshots still resolve the row through it, and predicate
		// re-checks hide it from newer ones.
		t.pk.set(newKey, id)
	}
	if idxAdds {
		t.idxMu.Lock()
		for _, idx := range t.indexes {
			if !valuesEqual(old[idx.col], newRow[idx.col]) {
				idx.add(newRow[idx.col], id)
			}
		}
		for _, idx := range t.ordered {
			if !valuesEqual(old[idx.col], newRow[idx.col]) {
				idx.add(newRow[idx.col], id)
			}
		}
		t.idxMu.Unlock()
	}
	nv := &rowVersion{data: newRow, begin: ts}
	nv.prev.Store(cur)
	slot.head.Store(nv)
	pruneChain(cur, horizon)
}

// applyDelete installs a tombstone for slot id at commit timestamp ts.
// Index and pk entries stay behind as stale hints.
func (t *table) applyDelete(id int, ts, horizon int64) {
	slot := t.slotAt(id)
	cur := slot.head.Load()
	if cur == nil || cur.data == nil {
		return
	}
	nv := &rowVersion{begin: ts}
	nv.prev.Store(cur)
	slot.head.Store(nv)
	t.live.Add(-1)
	pruneChain(cur, horizon)
	t.tombs = append(t.tombs, id)
}

// reaped is the head of every deleted slot once no reader can look behind
// its tombstone: deleted at every timestamp. Shared and never modified.
var reaped = &rowVersion{}

// reapTombstones replaces every tombstone at or below horizon, and with
// it the row it deleted, by the shared reaped version. A tombstone must
// keep the version it deleted for readers at older snapshots, and no
// later commit revisits a deleted slot to prune it, so without this every
// deleted row (TPC-W: every cart line of every confirmed order) stayed
// reachable for good. Once horizon has passed a tombstone, every active
// or future reader stops at it — and every writer's snapshot is at or
// past it too, so first-writer-wins validation never needs its
// timestamp again. Called on UPDATE/DELETE commits to the table, where
// the horizon is already in hand.
func (t *table) reapTombstones(horizon int64) {
	n := 0
	for ; n < len(t.tombs); n++ {
		slot := t.slotAt(t.tombs[n])
		if slot.head.Load().begin > horizon {
			break
		}
		slot.head.Store(reaped)
	}
	if t.tombs = t.tombs[n:]; len(t.tombs) == 0 {
		t.tombs = nil
	}
}

// pruneChain cuts the version chain below the newest version visible at
// horizon (the oldest snapshot any active or future reader can hold):
// everything strictly older is unreachable. The cut is an atomic prev
// store, safe against readers mid-walk — a reader's snapshot timestamp
// is >= horizon, so it stops at or before the cut point.
func pruneChain(from *rowVersion, horizon int64) {
	for v := from; v != nil; v = v.prev.Load() {
		if v.begin <= horizon {
			v.prev.Store(nil)
			return
		}
	}
}

// buildIndex constructs a secondary index on col (hash or ordered) from
// the rows visible at the latest timestamp and installs it, replacing
// any existing index on that column. Caller holds db.commitMu, so no
// writer races the build; readers see the old index (or none) until the
// install, which is fine — indexes are hints, and a plan chosen against
// the pre-install state is still correct.
func (t *table) buildIndex(col string, ordered bool) error {
	ci := t.schema.colIndex(col)
	if ci < 0 {
		return fmt.Errorf("sqldb: table %q has no column %q", t.schema.Table, col)
	}
	if t.pkCol == ci {
		return fmt.Errorf("sqldb: table %q: column %q is the primary key", t.schema.Table, col)
	}
	arena := t.slots.Load()
	if ordered {
		es := make([]idxEntry, 0, arena.n)
		for id := 0; id < arena.n; id++ {
			if data := arena.at(id).visible(latestTS); data != nil {
				es = append(es, idxEntry{val: data[ci], id: id})
			}
		}
		idx := newOrderedIndex(ci)
		idx.build(es)
		t.idxMu.Lock()
		delete(t.indexes, col)
		t.ordered[col] = idx
		t.idxMu.Unlock()
		return nil
	}
	idx := &hashIndex{col: ci, m: make(map[Value][]int)}
	for id := 0; id < arena.n; id++ {
		if data := arena.at(id).visible(latestTS); data != nil {
			idx.add(data[ci], id)
		}
	}
	t.idxMu.Lock()
	delete(t.ordered, col)
	t.indexes[col] = idx
	t.idxMu.Unlock()
	return nil
}

// distinct estimates the number of distinct values in an indexed column
// — the planner's equality selectivity denominator — or 0 when col
// carries no secondary index.
func (t *table) distinct(col string) int {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	if idx, ok := t.indexes[col]; ok {
		return max(len(idx.m), 1)
	}
	if idx, ok := t.ordered[col]; ok {
		return idx.state.Load().distinctVals()
	}
	return 0
}

// pkHint returns the primary-key index's entry for key, which may be
// stale.
func (t *table) pkHint(key int64) (int, bool) {
	if t.pk == nil {
		return 0, false
	}
	return t.pk.get(key)
}
