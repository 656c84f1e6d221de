package sqldb

import (
	"sort"
	"sync/atomic"
)

// orderedIndex is a secondary ordered index over one column: a sorted
// slab of (value, slot) entries serving equality probes, range scans,
// and in-order traversal for ORDER BY. Like hashIndex, entries are
// stale-tolerant hints — they are added on insert and key change and
// never removed, so every access path re-checks the predicate against
// the visible row.
//
// The published state is immutable and swapped atomically: writers
// (serialized by db.commitMu) insert into a small sorted buffer
// copy-on-write and merge it into the sorted base once it reaches
// mergeThreshold, so maintenance is a short copy per write instead of an
// O(n) slab copy. Readers load one pointer and work over slices
// that are never mutated afterwards.
type orderedIndex struct {
	col   int
	state atomic.Pointer[orderedState]
}

// idxEntry is one ordered-index entry: the indexed value and the slot it
// was observed at.
type idxEntry struct {
	val Value
	id  int
}

// orderedState is one immutable published generation of the index.
type orderedState struct {
	base []idxEntry // sorted by (val, id)
	buf  []idxEntry // recent additions, sorted by (val, id), small
	// distinct approximates the number of distinct values in base —
	// the planner's equality selectivity denominator.
	distinct int
}

// mergeThreshold bounds the buffer length before it is folded into the
// sorted base.
const mergeThreshold = 256

func newOrderedIndex(col int) *orderedIndex {
	idx := &orderedIndex{col: col}
	idx.state.Store(&orderedState{})
	return idx
}

// entryLess orders entries by (val, id); values of mismatched types
// (possible only across NULL, which compare sorts first) never error for
// a typed column.
func entryLess(a, b idxEntry) bool {
	c, err := compare(a.val, b.val)
	if err != nil {
		// Incomparable values (foreign types in an untyped column) get a
		// stable arbitrary order; lookups on them degrade to re-checks.
		return a.id < b.id
	}
	if c != 0 {
		return c < 0
	}
	return a.id < b.id
}

// add registers id under v. Duplicate (v, id) pairs (a value that
// flipped away and back across updates) are collapsed. Callers hold
// db.commitMu, so adds are single-threaded; readers are concurrent.
func (idx *orderedIndex) add(v Value, id int) {
	st := idx.state.Load()
	e := idxEntry{val: v, id: id}
	if _, found := findEntry(st.base, e); found {
		return
	}
	at, found := findEntry(st.buf, e)
	if found {
		return
	}
	nbuf := make([]idxEntry, len(st.buf)+1)
	copy(nbuf, st.buf[:at])
	nbuf[at] = e
	copy(nbuf[at+1:], st.buf[at:])
	if len(nbuf) < mergeThreshold {
		idx.state.Store(&orderedState{base: st.base, buf: nbuf, distinct: st.distinct})
		return
	}
	idx.state.Store(baseState(mergeEntries(st.base, nbuf)))
}

// findEntry returns the position of e in the (val, id)-sorted run s, or
// the position to insert it at.
func findEntry(s []idxEntry, e idxEntry) (int, bool) {
	i := sort.Search(len(s), func(i int) bool { return !entryLess(s[i], e) })
	return i, i < len(s) && s[i].id == e.id && valuesEqual(s[i].val, e.val)
}

// baseState is the state whose base is the (val, id)-sorted run es and
// whose buffer is empty.
func baseState(es []idxEntry) *orderedState {
	distinct := 0
	for i := range es {
		if i == 0 || !valuesEqual(es[i].val, es[i-1].val) {
			distinct++
		}
	}
	return &orderedState{base: es, distinct: distinct}
}

// build sets the index's contents to es (duplicate-free, any order),
// sorting each entry once instead of running an add per entry. The state
// is the one those adds, in the order given, would have left: the tail
// past the last multiple of mergeThreshold stays in the buffer. A probe
// is charged for the buffer entries it visits, so the split is part of
// what a statement costs and must not depend on how the index was built.
func (idx *orderedIndex) build(es []idxEntry) {
	cut := len(es) - len(es)%mergeThreshold
	base, buf := es[:cut:cut], es[cut:]
	sortEntries(base)
	sortEntries(buf)
	st := baseState(base)
	st.buf = buf
	idx.state.Store(st)
}

func sortEntries(es []idxEntry) {
	sort.Slice(es, func(i, j int) bool { return entryLess(es[i], es[j]) })
}

// entries reports the total entry count (hints, not live rows).
func (st *orderedState) entries() int { return len(st.base) + len(st.buf) }

// distinctVals estimates the number of distinct indexed values.
func (st *orderedState) distinctVals() int {
	d := st.distinct + len(st.buf)
	if d < 1 {
		d = 1
	}
	return d
}

// cmpVal orders v against an entry value, treating incomparable pairs as
// "entry sorts low" so a corrupt entry is visited (and re-checked) rather
// than silently skipped.
func cmpVal(entryVal, v Value) int {
	c, err := compare(entryVal, v)
	if err != nil {
		return -1
	}
	return c
}

// lowerBound returns the first position in s with entry value >= v
// (or > v when excl).
func lowerBound(s []idxEntry, v Value, excl bool) int {
	return sort.Search(len(s), func(i int) bool {
		c := cmpVal(s[i].val, v)
		if excl {
			return c > 0
		}
		return c >= 0
	})
}

// upperBound returns the first position in s with entry value > v
// (or >= v when excl).
func upperBound(s []idxEntry, v Value, excl bool) int {
	return sort.Search(len(s), func(i int) bool {
		c := cmpVal(s[i].val, v)
		if excl {
			return c >= 0
		}
		return c > 0
	})
}

// eq appends the slot hints whose entry value equals v to ids and
// returns them, plus the number of entries visited (for honest probe
// pricing).
func (st *orderedState) eq(v Value, ids []int) (_ []int, visited int) {
	lo, hi := lowerBound(st.base, v, false), upperBound(st.base, v, false)
	for _, e := range st.base[lo:hi] {
		ids = append(ids, e.id)
		visited++
	}
	for _, e := range st.buf {
		if valuesEqual(e.val, v) {
			ids = append(ids, e.id)
		}
		visited++
	}
	return ids, visited
}

// rangeEntries returns the entries whose value lies inside the bounds
// (hasLo/hasHi false = unbounded on that side), in ascending (val, id)
// order, plus the number of entries visited. NULL-valued entries are
// excluded: SQL comparisons against NULL are never true. Entries (not
// bare ids) are returned so the executor can re-check each entry value
// against the visible row — a row whose key was updated has entries
// under both its old and new value, and only the one matching the
// visible row may produce it.
func (st *orderedState) rangeEntries(lo Value, loExcl bool, hasLo bool, hi Value, hiExcl bool, hasHi bool) (es []idxEntry, visited int) {
	inRange := func(v Value) bool {
		if v == nil {
			return false
		}
		if hasLo {
			c := cmpVal(v, lo)
			if c < 0 || (loExcl && c == 0) {
				return false
			}
		}
		if hasHi {
			c := cmpVal(v, hi)
			if c > 0 || (hiExcl && c == 0) {
				return false
			}
		}
		return true
	}
	start, end := 0, len(st.base)
	if hasLo {
		start = lowerBound(st.base, lo, loExcl)
	}
	if hasHi {
		end = upperBound(st.base, hi, hiExcl)
	}
	if start > end {
		start = end
	}
	var fromBuf []idxEntry
	for _, e := range st.buf {
		if inRange(e.val) {
			fromBuf = append(fromBuf, e)
		}
		visited++
	}
	visited += end - start
	return mergeEntries(st.base[start:end], fromBuf), visited
}

// allEntries returns every entry in ascending (val, id) order — unlike
// rangeEntries it keeps NULL-valued entries (ORDER BY sorts NULLs
// first, matching compare) — plus the visit count. Descending callers
// iterate the result backwards.
func (st *orderedState) allEntries() (es []idxEntry, visited int) {
	return mergeEntries(st.base, st.buf), st.entries()
}

// mergeEntries merges two (val, id)-sorted runs. The base run is
// returned as-is when the buffer contributes nothing.
func mergeEntries(base, buf []idxEntry) []idxEntry {
	if len(buf) == 0 {
		return base
	}
	out := make([]idxEntry, 0, len(base)+len(buf))
	i, j := 0, 0
	for i < len(base) && j < len(buf) {
		if entryLess(buf[j], base[i]) {
			out = append(out, buf[j])
			j++
		} else {
			out = append(out, base[i])
			i++
		}
	}
	out = append(out, base[i:]...)
	out = append(out, buf[j:]...)
	return out
}

// clone shares the immutable published state with the clone; the first
// add on either side diverges copy-on-write.
func (idx *orderedIndex) clone() *orderedIndex {
	n := &orderedIndex{col: idx.col}
	n.state.Store(idx.state.Load())
	return n
}
