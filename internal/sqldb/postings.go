package sqldb

import (
	"math/bits"
	"slices"
	"sync/atomic"
)

// postings index the slots of one coded column (see table.codeSlot) by
// code: sets[c] holds slot id once some version of slot id has carried
// code c, and nothing clears it. Code 0 is NULL, and every string the
// column took after it dropped its dictionary. Like every index here they
// are hints: a slot in sets[c] may carry another code by now, or at a
// reader's snapshot, and the reader re-checks the version it loads. What
// they promise is the other direction. A version is in the set of its
// code before it is published, so a slot outside the sets of every code
// a conjunct passes, and of code 0, holds no row that passes it, at any
// timestamp a reader can read at.
//
// A column's postings are built on first use (DB.postingsOf) and kept up
// to date by every commit from then on (table.post). A published header
// is never modified, its bits aside, which are set atomically: a new code
// publishes a header with one more box and one more set, and a slot past
// the sets' length one with every set copied at twice the length. A
// reader that loads the header after its table view finds every slot of
// the view covered. They cost 8 bytes per 64 slots per code.
type postings struct {
	boxes []Value           // boxes[c-1] is the string code c names
	sets  [][]atomic.Uint64 // sets[c] for every code c up to len(boxes), all of one length
}

// noPostings marks a column whose dictionary was gone before its postings
// were built: its rows carry code 0 from some point on, so postings would
// narrow nothing.
var noPostings = &postings{}

// postingsOf returns the postings of table t's column with code slot s,
// building them under commitMu on first use, or nil if the column has
// none.
func (db *DB) postingsOf(t *table, s int8) *postings {
	p := t.posts[s].Load()
	if p == nil {
		db.commitMu.Lock()
		if p = t.posts[s].Load(); p == nil {
			p = t.buildPostings(s)
			t.posts[s].Store(p)
		}
		db.commitMu.Unlock()
	}
	if p == noPostings {
		return nil
	}
	return p
}

// buildPostings walks every version of every slot into fresh postings for
// the column with code slot s. Caller holds db.commitMu.
func (t *table) buildPostings(s int8) *postings {
	d := t.dicts[slices.Index(t.codeSlot, s)]
	if d == nil {
		return noPostings
	}
	arena := t.slots.Load()
	p := &postings{boxes: make([]Value, len(d)), sets: make([][]atomic.Uint64, len(d)+1)}
	for _, e := range d {
		p.boxes[e.code-1] = e.box
	}
	for c := range p.sets {
		p.sets[c] = make([]atomic.Uint64, arena.n/64+1)
	}
	for id := 0; id < arena.n; id++ {
		for v := arena.at(id).head.Load(); v != nil; v = v.prev.Load() {
			if v.cells != nil {
				p.set(v.codes[s], id)
			}
		}
	}
	return p
}

// set adds slot id to code c's set, which is long enough.
func (p *postings) set(c uint8, id int) {
	p.sets[c][id>>6].Or(1 << (id & 63))
}

// post adds slot id to the sets of codes, the codes of a version about to
// be published there, in every column whose postings are built. Caller
// holds db.commitMu.
func (t *table) post(id int, codes *[codeSlots]uint8) {
	for s := range t.posts {
		p := t.posts[s].Load()
		if p == nil || p == noPostings {
			continue
		}
		if n := len(p.sets[0]); id>>6 >= n {
			np := &postings{boxes: p.boxes, sets: make([][]atomic.Uint64, len(p.sets))}
			for c, set := range p.sets {
				np.sets[c] = make([]atomic.Uint64, max(2*n, id>>6+1))
				for w := range set {
					np.sets[c][w].Store(set[w].Load())
				}
			}
			p = np
			t.posts[s].Store(p)
		}
		p.set(codes[s], id)
	}
}

// addCode gives the postings of the column with code slot s, if built, a
// set for the code the column's dictionary just gave box. Caller holds
// db.commitMu.
func (t *table) addCode(s int8, box Value) {
	p := t.posts[s].Load()
	if p == nil || p == noPostings {
		return
	}
	t.posts[s].Store(&postings{
		boxes: append(p.boxes, box),
		sets:  append(p.sets, make([]atomic.Uint64, len(p.sets[0]))),
	})
}

// denseSieve is the share of a view's slots, in quarters, above which a
// sieve is not worth walking: the plain loop visits every slot anyway.
const denseSieve = 3

// sieve returns the slots of binding i's view that can pass the first
// conjunct at depth i, as a bitset, or nil for every slot. That conjunct
// must be coded and its column's postings built or buildable, or there is
// no sieve. It evaluates the conjunct once per string of the column's
// dictionary, into the execution's memo, and takes the union of code 0's
// set with those of the codes that pass. An error evaluating a string is
// left to the rows that hold it: no sieve, and the plain loop meets it
// where the plain evaluation would. So is a union that holds more than
// denseSieve quarters of the view.
//
// Only the first conjunct may sieve: a row that fails it is rejected
// before any other runs, so leaving it out hides no other conjunct's
// error.
func (r *selectRun) sieve(i int) []uint64 {
	preds := r.plan.preds[i]
	if len(preds) == 0 || !preds[0].coded {
		return nil
	}
	p := &preds[0]
	v := r.views[i]
	n := v.size()
	post := r.db.postingsOf(v.tbl, p.slot)
	if post == nil || n == 0 {
		return nil
	}
	m := r.ec.memo
	m.cell = slices.Grow(m.cell[:0], p.col+1)[:p.col+1]
	bound := r.rows[i]
	r.rows[i] = m.cell
	var err error
	for c := 1; c <= len(post.boxes) && err == nil; c++ {
		if e := &m.results[p.memo|c]; *e == memoUnknown {
			m.cell[p.col] = post.boxes[c-1]
			var ok bool
			if ok, err = p.eval(r.rows, r.ec); err == nil {
				*e = memoOf(ok)
			}
		}
	}
	m.cell[p.col] = nil
	r.rows[i] = bound
	if err != nil {
		return nil
	}

	if len(m.sieves) < len(r.views) {
		m.sieves = append(m.sieves, make([][]uint64, len(r.views)-len(m.sieves))...)
	}
	words := (n + 63) / 64
	union := slices.Grow(m.sieves[i][:0], words)[:words]
	m.sieves[i] = union
	for w, set := 0, post.sets[0]; w < words; w++ {
		union[w] = set[w].Load()
	}
	for c := 1; c <= len(post.boxes); c++ {
		if m.results[p.memo|c] == memoTrue {
			set := post.sets[c]
			for w := range union {
				union[w] |= set[w].Load()
			}
		}
	}
	if tail := n % 64; tail != 0 {
		union[words-1] &= 1<<tail - 1
	}
	held := 0
	for _, x := range union {
		held += bits.OnesCount64(x)
	}
	if 4*held > denseSieve*n {
		return nil
	}
	return union
}

// sieved reports whether slot id is in sieve s.
func sieved(s []uint64, id int) bool {
	return uint(id>>6) < uint(len(s)) && s[id>>6]&(1<<(id&63)) != 0
}
