package sqldb

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestOrderedIndexAddKeepsSortedRuns adds 10 000 (value, slot) pairs in
// random order — duplicates included, and one pair that is added, has
// its slot re-indexed under another value, and is added again, the way a
// column that flips away and back does — and requires the index to hold
// exactly the sorted, de-duplicated pairs, with the distinct-value count
// of its base exact.
func TestOrderedIndexAddKeepsSortedRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	idx := newOrderedIndex(0)
	seen := map[idxEntry]bool{}
	add := func(v Value, id int) {
		idx.add(v, id)
		seen[idxEntry{val: v, id: id}] = true
	}
	add(int64(7), 42)
	add(int64(8), 42)
	add(int64(7), 42)
	for i := 0; i < 10000; i++ {
		var v Value = rng.Int63n(500)
		if rng.Intn(50) == 0 {
			v = nil // NULLs sort first
		}
		add(v, rng.Intn(3000))
	}

	want := make([]idxEntry, 0, len(seen))
	for e := range seen {
		want = append(want, e)
	}
	sortEntries(want)
	st := idx.state.Load()
	got, visited := st.allEntries()
	if visited != len(want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("index holds %d entries (visited %d), want the %d distinct pairs in (value, slot) order", len(got), visited, len(want))
	}
	if !sort.SliceIsSorted(st.base, func(i, j int) bool { return entryLess(st.base[i], st.base[j]) }) ||
		!sort.SliceIsSorted(st.buf, func(i, j int) bool { return entryLess(st.buf[i], st.buf[j]) }) {
		t.Fatal("base or buffer is not sorted")
	}
	if len(st.buf) >= mergeThreshold {
		t.Fatalf("buffer holds %d entries, merge threshold is %d", len(st.buf), mergeThreshold)
	}
	vals := map[Value]bool{}
	for _, e := range st.base {
		vals[e.val] = true
	}
	if st.distinct != len(vals) {
		t.Fatalf("distinct = %d, base holds %d distinct values", st.distinct, len(vals))
	}
	if st.distinctVals() != len(vals)+len(st.buf) {
		t.Fatalf("distinctVals = %d, want %d + %d buffered", st.distinctVals(), len(vals), len(st.buf))
	}
}

// TestOrderedIndexBuildEqualsAdds requires build to leave the state an
// add per entry would have: what a probe visits, and so what a statement
// is charged, must not depend on whether the index was declared with the
// table or created over its rows later.
func TestOrderedIndexBuildEqualsAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, mergeThreshold - 1, mergeThreshold, 3*mergeThreshold + 107} {
		es := make([]idxEntry, n)
		for i := range es {
			es[i] = idxEntry{val: rng.Int63n(40), id: i}
		}
		added := newOrderedIndex(0)
		for _, e := range es {
			added.add(e.val, e.id)
		}
		built := newOrderedIndex(0)
		built.build(es)
		a, b := added.state.Load(), built.state.Load()
		if len(a.base) != len(b.base) || len(a.buf) != len(b.buf) || a.distinct != b.distinct {
			t.Fatalf("n=%d: adds left base %d / buffer %d / distinct %d, build left %d / %d / %d",
				n, len(a.base), len(a.buf), a.distinct, len(b.base), len(b.buf), b.distinct)
		}
		ae, _ := a.allEntries()
		be, _ := b.allEntries()
		if len(ae) != n || (n > 0 && !reflect.DeepEqual(ae, be)) {
			t.Fatalf("n=%d: entries differ between adds and build", n)
		}
	}
}
