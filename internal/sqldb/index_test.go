package sqldb

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
)

// TestOrderedIndexAddKeepsSortedRuns adds 10 000 (value, slot) pairs in
// random order — duplicates included, and one pair that is added, has
// its slot re-indexed under another value, and is added again, the way a
// column that flips away and back does — and requires the index to hold
// exactly the sorted, de-duplicated pairs.
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
		if len(a.base) != len(b.base) || len(a.buf) != len(b.buf) {
			t.Fatalf("n=%d: adds left base %d / buffer %d, build left %d / %d",
				n, len(a.base), len(a.buf), len(b.base), len(b.buf))
		}
		ae, _ := a.allEntries()
		be, _ := b.allEntries()
		if len(ae) != n || (n > 0 && !reflect.DeepEqual(ae, be)) {
			t.Fatalf("n=%d: entries differ between adds and build", n)
		}
	}
}

// allEntries returns every entry in ascending (val, id) order, plus the
// number of entries the state holds.
func (st *orderedState) allEntries() (es []idxEntry, visited int) {
	return mergeEntries(st.base, st.buf), len(st.base) + len(st.buf)
}

// ascendingAdds adds n entries to idx whose values ascend from from, each
// under its own slot, and returns the entries added.
func ascendingAdds(idx *orderedIndex, from, n int) []idxEntry {
	es := make([]idxEntry, n)
	for i := range es {
		es[i] = idxEntry{val: int64(from + i), id: from + i}
		idx.add(es[i].val, es[i].id)
	}
	return es
}

// sharesArray reports whether the runs a and b start at the same element:
// b was appended onto a in place.
func sharesArray(a, b []idxEntry) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestOrderedIndexStatesSurviveAppends adds entries whose values mostly
// ascend — appended into the buffer's spare capacity and onto the
// base's — with one in eight of the second half sorting inside the
// buffer or the base. At each of those, at each merge and at every 64th
// add, it requires the index to hold exactly the entries added, in
// order, and the state taken just before the add to still yield exactly
// the entries it held; at the end, so must every state it kept along the
// way.
func TestOrderedIndexStatesSurviveAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	idx := newOrderedIndex(0)
	var model []idxEntry // every entry added, sorted
	type kept struct {
		st   *orderedState
		want []idxEntry
	}
	var olds []kept
	var inBuf, onBase int
	const n = 16 * mergeThreshold
	for i := 0; i < n; i++ {
		v := int64(i)
		inside := i >= n/2 && rng.Intn(8) == 0
		if inside {
			v = rng.Int63n(v)
		}
		before := idx.state.Load()
		idx.add(v, i)
		e := idxEntry{val: v, id: i}
		at, _ := findEntry(model, e)
		model = slices.Insert(model, at, e)

		st := idx.state.Load()
		if len(st.buf) > len(before.buf) && sharesArray(before.buf, st.buf) {
			inBuf++
		}
		if len(st.base) > len(before.base) && sharesArray(before.base, st.base) {
			onBase++
		}
		if !inside && len(st.buf) > 0 && i%64 != 0 {
			continue
		}
		// The state before holds the model without e.
		if got, _ := before.allEntries(); len(got) != len(model)-1 ||
			!slices.Equal(got[:at], model[:at]) || !slices.Equal(got[at:], model[at+1:]) {
			t.Fatalf("add %d: the state before it now yields %d entries, held %d", i, len(got), len(model)-1)
		}
		if got, visited := st.allEntries(); visited != len(model) || !slices.Equal(got, model) {
			t.Fatalf("add %d: index yields %d entries (visits %d), want the %d added, in order", i, len(got), visited, len(model))
		}
		if i%256 == 0 {
			olds = append(olds, kept{st, slices.Clone(model)})
		}
	}
	for _, k := range olds {
		if got, _ := k.st.allEntries(); !slices.Equal(got, k.want) {
			t.Fatalf("a state of %d entries now yields %d", len(k.want), len(got))
		}
	}
	// The test is only as good as the in-place appends it saw.
	if inBuf < n/2 || onBase == 0 {
		t.Fatalf("%d adds went into the buffer's spare capacity and %d merges onto the base's; want most, and some", inBuf, onBase)
	}
}

// indexTestTable is a table with a hash index on c and an ordered one on o.
func indexTestTable() *table {
	t := newTable(Schema{
		Table:   "t",
		Columns: []Column{{Name: "c", Type: Int}, {Name: "o", Type: Int}},
		Indexes: []string{"c"},
	})
	if err := t.buildIndex("o", true); err != nil {
		panic(err)
	}
	return t
}

// TestHashBucketsSurviveAppends adds slots under one value and requires
// every bucket lookupIndex handed out before an add to still hold exactly
// the slots it held, and a caller appending to one not to write into the
// index.
func TestHashBucketsSurviveAppends(t *testing.T) {
	tbl := indexTestTable()
	v := tbl.view(latestTS)
	idx := tbl.indexes["c"]
	var held [][]int
	for id := 0; id < 300; id++ {
		ids, _, _ := v.lookupIndex("c", int64(7), nil)
		held = append(held, ids)
		idx.add(int64(7), id)
		_ = append(ids, -1) // a caller's append must copy
	}
	held = append(held, idx.m[int64(7)])
	for n, ids := range held {
		if len(ids) != n {
			t.Fatalf("bucket handed out after %d adds holds %d slots", n, len(ids))
		}
		for i, id := range ids {
			if id != i {
				t.Fatalf("bucket handed out after %d adds holds slot %d at %d", n, id, i)
			}
		}
	}
}

// TestOrderedIndexCloneKeepsItsOwnAppends clones an index whose buffer
// and base both have spare capacity, then adds different entries to the
// original and to the clone, and requires each to hold its own.
func TestOrderedIndexCloneKeepsItsOwnAppends(t *testing.T) {
	idx := newOrderedIndex(0)
	shared := ascendingAdds(idx, 0, 9*mergeThreshold+10)
	st := idx.state.Load()
	if cap(st.buf) == len(st.buf) || cap(st.base) < len(st.base)+mergeThreshold {
		t.Fatalf("buffer %d/%d, base %d/%d: want room in both", len(st.buf), cap(st.buf), len(st.base), cap(st.base))
	}
	clone := idx.clone()
	var mine, theirs []idxEntry
	for i := 0; i < mergeThreshold; i++ {
		// Interleaved, values ascending on both sides, slots apart.
		mine = append(mine, ascendingAdds(idx, len(shared)+2*i, 1)...)
		theirs = append(theirs, ascendingAdds(clone, len(shared)+2*i+1, 1)...)
	}
	for _, side := range []struct {
		name string
		idx  *orderedIndex
		own  []idxEntry
	}{{"original", idx, mine}, {"clone", clone, theirs}} {
		want := append(slices.Clone(shared), side.own...)
		if got, _ := side.idx.state.Load().allEntries(); !slices.Equal(got, want) {
			t.Errorf("%s holds %d entries, want its %d", side.name, len(got), len(want))
		}
	}
}

// TestHashIndexCloneKeepsItsOwnAppends clones a table whose bucket has
// spare capacity, then adds different slots under the bucket's value on
// each side, and requires each bucket to hold its own.
func TestHashIndexCloneKeepsItsOwnAppends(t *testing.T) {
	tbl := indexTestTable()
	idx := tbl.indexes["c"]
	for id := 0; id < 5; id++ {
		idx.add(int64(7), id)
	}
	if b := idx.m[int64(7)]; cap(b) == len(b) {
		t.Fatalf("bucket %d/%d: want room", len(b), cap(b))
	}
	clone := tbl.cloneAt(latestTS).indexes["c"]
	idx.add(int64(7), 10)
	clone.add(int64(7), 20)
	idx.add(int64(7), 11)
	clone.add(int64(7), 21)
	if got, want := idx.m[int64(7)], []int{0, 1, 2, 3, 4, 10, 11}; !slices.Equal(got, want) {
		t.Errorf("original bucket %v, want %v", got, want)
	}
	if got, want := clone.m[int64(7)], []int{0, 1, 2, 3, 4, 20, 21}; !slices.Equal(got, want) {
		t.Errorf("clone bucket %v, want %v", got, want)
	}
}

// TestIndexReadersWhileWriterAppends runs readers against a writer that
// appends to both index kinds in place, copying now and then: every state
// a reader loads is sorted and holds every entry its length promises, and
// every bucket is the slots added under its value so far, in order. Run
// it under -race.
func TestIndexReadersWhileWriterAppends(t *testing.T) {
	tbl := indexTestTable()
	oidx := tbl.ordered["o"]
	const n = 6 * mergeThreshold
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []int
			v := tbl.view(latestTS)
			for {
				select {
				case <-done:
					return
				default:
				}
				st := oidx.state.Load()
				es, visited := st.allEntries()
				if len(es) != visited || !slices.IsSortedFunc(es, func(a, b idxEntry) int {
					if entryLess(a, b) {
						return -1
					}
					return 1
				}) {
					t.Errorf("a state of %d entries yields %d, or out of order", visited, len(es))
					return
				}
				in, _ := st.above(int64(n/2 - 1))
				for e, ok := in.first(); ok; e, ok = in.first() {
					if e.val.(int64) < n/2 {
						t.Errorf("range read yields %v below its bound", e.val)
						return
					}
				}
				ids, _, _ := v.lookupIndex("c", int64(1), &buf)
				for i, id := range ids {
					if id != 2*i+1 {
						t.Errorf("bucket holds slot %d at %d", id, i)
						return
					}
				}
			}
		}()
	}
	for id := 0; id < n; id++ {
		val := int64(id)
		if id%16 == 0 {
			val = int64(id / 2) // sorts inside a run
		}
		tbl.idxMu.Lock()
		tbl.indexes["c"].add(int64(id%2), id)
		oidx.add(val, id)
		tbl.idxMu.Unlock()
	}
	close(done)
	wg.Wait()
}

// memDelta reports the heap objects and bytes f allocates.
func memDelta(f func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// countVisitor counts the rows an access path hands it.
type countVisitor struct{ n int }

func (c *countVisitor) visit(int, *rowVersion) error { c.n++; return nil }

// TestIndexAllocCeilings pins what index upkeep and range reads allocate.
// Before adds appended in place, an ordered add copied the buffer (up to
// 255 entries) and every 256th rewrote the whole base, and a hash add
// copied its bucket; a range read built a merged copy of the entries in
// range.
func TestIndexAllocCeilings(t *testing.T) {
	// Ascending ordered adds: the published header, one per add, plus
	// O(1/256) per add of buffer and base growth.
	const n = 64 * mergeThreshold
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	idx := newOrderedIndex(0)
	objs, bytes := memDelta(func() {
		for i, v := range vals {
			idx.add(v, i)
		}
	})
	t.Logf("ordered, ascending: %d objects, %d B per %d adds", objs, bytes, n)
	if objs > n+n/16 || bytes > 320*n {
		t.Errorf("ordered, ascending: %d objects, %d B per add; ceilings %d objects, 320 B per add", objs, bytes/n, n+n/16)
	}

	// Hash appends under one value: the bucket's doublings.
	const m = 4096
	hidx := &hashIndex{m: map[Value][]int{}}
	objs, bytes = memDelta(func() {
		for id := 0; id < m; id++ {
			hidx.add(vals[7], id)
		}
	})
	t.Logf("hash, one value: %d objects, %d B per %d adds", objs, bytes, m)
	if objs > 24 || bytes > 40*m {
		t.Errorf("hash, one value: %d objects, %d B per %d adds; ceilings 24 objects, 40 B per add", objs, bytes, m)
	}

	// A range read over base and buffer.
	tbl := indexTestTable()
	db := Open(Options{Cost: ZeroCostModel()})
	for id := 0; id < 3*mergeThreshold+100; id++ {
		tbl.applyInsert([]Value{int64(id % 2), vals[id]}, 1)
	}
	if st := tbl.ordered["o"].state.Load(); len(st.base) == 0 || len(st.buf) == 0 {
		t.Fatalf("base %d, buffer %d: want both", len(st.base), len(st.buf))
	}
	p := accessPath{kind: pathIndexRange, colName: "o", val: operand{Lit: vals[100]}}
	v, ec, vis := tbl.view(latestTS), &execCtx{}, &countVisitor{}
	if n := testing.AllocsPerRun(20, func() {
		vis.n = 0
		if handled, err := db.driveRange(p, v, ec, vis); !handled || err != nil {
			t.Fatal(handled, err)
		}
	}); n != 0 || vis.n != 3*mergeThreshold-1 {
		t.Errorf("range read: %v allocations, %d rows; want 0, %d", n, vis.n, 3*mergeThreshold-1)
	}
}

// BenchmarkIndexAdd adds entries to each index kind, with ascending keys
// (order ids) and random ones (a re-priced item's date), starting a fresh
// index every 16 384 adds.
func BenchmarkIndexAdd(b *testing.B) {
	const window = 64 * mergeThreshold
	rng := rand.New(rand.NewSource(1))
	asc, random := make([]Value, window), make([]Value, window)
	for i := range asc {
		asc[i], random[i] = int64(i), rng.Int63n(window)
	}
	for _, keys := range []struct {
		name string
		vals []Value
	}{{"ascending", asc}, {"random", random}} {
		b.Run("ordered/"+keys.name, func(b *testing.B) {
			b.ReportAllocs()
			var idx *orderedIndex
			for i := 0; i < b.N; i++ {
				if i%window == 0 {
					idx = newOrderedIndex(0)
				}
				idx.add(keys.vals[i%window], i%window)
			}
		})
		// Sixty-four slots per value on average, as order lines per order.
		b.Run("hash/"+keys.name, func(b *testing.B) {
			b.ReportAllocs()
			var idx *hashIndex
			for i := 0; i < b.N; i++ {
				if i%window == 0 {
					idx = &hashIndex{m: map[Value][]int{}}
				}
				idx.add(keys.vals[i%window].(int64)/64, i%window)
			}
		})
	}
}
