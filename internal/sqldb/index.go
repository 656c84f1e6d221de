package sqldb

import (
	"slices"
	"sort"
	"sync/atomic"
)

// orderedIndex is a secondary ordered index over one column: a sorted
// slab of (value, slot) entries serving equality probes and reads above
// a bound (col > v). Like hashIndex, entries are stale-tolerant hints —
// they are added on insert and key change and never removed, so every
// access path re-checks the predicate against the visible row.
//
// The published state is a header swapped atomically over two sorted
// runs: a base and a small buffer that is folded into it once it reaches
// mergeThreshold. Writers are serialized by db.commitMu. A reader loads
// one header and reads no further than the lengths it holds, so a writer
// may append past them in place, the way table.appendSlot grows the slot
// arena: an entry that sorts after the buffer's last goes into the
// buffer's spare capacity, and a full buffer that sorts after the base's
// last goes onto the end of the base. Anything else copies: an entry
// that sorts inside the buffer copies the buffer, and a full buffer that
// does not sort after the base is merged with it into a new base. The
// elements a header covers are never written again, and no two indexes
// share spare capacity (see clone).
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

// orderedState is one published generation of the index. Its fields are
// never modified; what later generations append lies past its lengths.
type orderedState struct {
	base []idxEntry // sorted by (val, id)
	buf  []idxEntry // recent additions, sorted by (val, id), small
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
	var nbuf []idxEntry
	if at == len(st.buf) {
		nbuf = append(st.buf, e) // sorts last: past every reader's length
	} else {
		// A copy, sized as append sizes it: the slack of its size class,
		// which make would hide, is room for the next entry that sorts last.
		nbuf = slices.Grow([]idxEntry(nil), len(st.buf)+1)[:len(st.buf)+1]
		copy(nbuf, st.buf[:at])
		nbuf[at] = e
		copy(nbuf[at+1:], st.buf[at:])
	}
	if len(nbuf) < mergeThreshold {
		idx.state.Store(&orderedState{base: st.base, buf: nbuf})
		return
	}
	if n := len(st.base); n > 0 && !entryLess(st.base[n-1], nbuf[0]) {
		idx.state.Store(&orderedState{base: mergeEntries(st.base, nbuf)})
		return
	}
	// The buffer sorts after the whole base (ascending keys): the merge
	// is a concatenation, grown in place while the base has room.
	idx.state.Store(&orderedState{base: append(st.base, nbuf...)})
}

// findEntry returns the position of e in the (val, id)-sorted run s, or
// the position to insert it at.
func findEntry(s []idxEntry, e idxEntry) (int, bool) {
	i := sort.Search(len(s), func(i int) bool { return !entryLess(s[i], e) })
	return i, i < len(s) && s[i].id == e.id && valuesEqual(s[i].val, e.val)
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
	idx.state.Store(&orderedState{base: base, buf: buf})
}

func sortEntries(es []idxEntry) {
	sort.Slice(es, func(i, j int) bool { return entryLess(es[i], es[j]) })
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

// lowerBound returns the first position in s with entry value >= v.
func lowerBound(s []idxEntry, v Value) int {
	return sort.Search(len(s), func(i int) bool { return cmpVal(s[i].val, v) >= 0 })
}

// upperBound returns the first position in s with entry value > v.
func upperBound(s []idxEntry, v Value) int {
	return sort.Search(len(s), func(i int) bool { return cmpVal(s[i].val, v) > 0 })
}

// eq appends the slot hints whose entry value equals v to ids and
// returns them, plus the number of entries visited (for honest probe
// pricing).
func (st *orderedState) eq(v Value, ids []int) (_ []int, visited int) {
	lo, hi := lowerBound(st.base, v), upperBound(st.base, v)
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

// above returns the entries of a read of the values above lo, in
// ascending (val, id) order, plus the number of entries it visits: the
// base run past lo and the whole buffer, whose entries past lo are kept.
// Entries (not bare ids) are read so the executor can re-check each
// entry value against the visible row — a row whose key was updated has
// entries under both its old and new value, and only the one matching
// the visible row may produce it.
func (st *orderedState) above(lo Value) (_ runs, visited int) {
	start := upperBound(st.base, lo)
	return runs{base: st.base[start:], buf: st.buf, above: lo}, len(st.base) - start + len(st.buf)
}

// runs reads two (val, id)-sorted runs in ascending order as the one run
// mergeEntries would build from them, without building it, and drops the
// buffer entries not above the bound as it reaches them (the base run
// starts past it). NULL is above nothing: SQL comparisons against NULL
// are never true.
type runs struct {
	base, buf []idxEntry
	above     Value
}

// first removes and returns the smallest entry left.
func (r *runs) first() (idxEntry, bool) {
	for len(r.buf) > 0 && (r.buf[0].val == nil || cmpVal(r.buf[0].val, r.above) <= 0) {
		r.buf = r.buf[1:]
	}
	if len(r.buf) > 0 && (len(r.base) == 0 || entryLess(r.buf[0], r.base[0])) {
		e := r.buf[0]
		r.buf = r.buf[1:]
		return e, true
	}
	if len(r.base) == 0 {
		return idxEntry{}, false
	}
	e := r.base[0]
	r.base = r.base[1:]
	return e, true
}

// mergeEntries merges two (val, id)-sorted runs into a new one.
func mergeEntries(base, buf []idxEntry) []idxEntry {
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

// clone shares the published runs with the clone, each capped at its
// length: the clone's appends copy, and cannot write into the capacity
// the original appends into.
func (idx *orderedIndex) clone() *orderedIndex {
	st := idx.state.Load()
	n := &orderedIndex{col: idx.col}
	n.state.Store(&orderedState{base: slices.Clip(st.base), buf: slices.Clip(st.buf)})
	return n
}
