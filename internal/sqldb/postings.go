package sqldb

import (
	"iter"
	"math/bits"
	"slices"
	"sync/atomic"
)

// postings index the slots of one String column by key, in one of two
// keyings. Code postings, of a coded column (see table.codeSlot), are keyed
// by code: sets[c] holds slot id once some version of slot id has carried
// code c. Code 0 is NULL, and every string the column took after it
// dropped its dictionary. Trigram postings, of a column a LIKE filters
// that has no code postings to narrow it by (see table.grams), are keyed
// by letter trigram: sets[k] holds slot id once some version of slot id has
// held a string containing trigram grams[k] (see letterGrams). Nothing
// clears a bit. Like every index here they are hints: a slot in a set may
// hold another string by now, or at a reader's snapshot, and the reader
// re-checks the version it loads. What they promise is the other
// direction. A version is in the sets of all its keys before it is
// published, so a slot outside the sets of every code a conjunct passes,
// and of code 0, or outside the set of one trigram a pattern holds, holds
// no row that passes it, at any timestamp a reader can read at.
//
// A column's postings are built on first use (DB.postingsOf, DB.gramsOf)
// and kept up to date by every commit from then on (table.post). A
// published header is never modified, its bits aside, which are set
// atomically: a new code or trigram publishes a header with one more set,
// and a slot past the sets' length one with every set copied at twice the
// length. A reader that loads the header after its table view finds every
// slot of the view covered. They cost 8 bytes per 64 slots per code or
// trigram.
type postings struct {
	boxes []Value           // code postings: boxes[c-1] is the string code c names
	grams []uint16          // trigram postings: sets[k] is trigram grams[k]'s, ascending
	sets  [][]atomic.Uint64 // all of one length
}

// noPostings marks a column whose postings would narrow nothing: as code
// postings, a column whose dictionary was gone before they were built (its
// rows carry code 0 from some point on); as trigram postings, a column
// that holds no strings.
var noPostings = &postings{}

// postingsOf returns the postings of table t's column with code slot s,
// building them under commitMu on first use, or nil if the column has
// none.
func (db *DB) postingsOf(t *table, s int8) *postings {
	return db.loadOrBuild(&t.posts[s], func() *postings { return t.buildPostings(s) })
}

// gramsOf returns the trigram postings of table t's column ci, building
// them under commitMu on first use, or nil if the column has none.
func (db *DB) gramsOf(t *table, ci int) *postings {
	return db.loadOrBuild(&t.grams[ci], func() *postings { return t.buildGrams(ci) })
}

// loadOrBuild loads the postings at ptr, storing build's under commitMu
// if there are none yet, and returns them, or nil for noPostings.
func (db *DB) loadOrBuild(ptr *atomic.Pointer[postings], build func() *postings) *postings {
	p := ptr.Load()
	if p == nil {
		db.commitMu.Lock()
		if p = ptr.Load(); p == nil {
			p = build()
			ptr.Store(p)
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
				p.set(int(v.codes[s]), id)
			}
		}
	}
	return p
}

// gramKeys is the number of letter trigrams: 26³.
const gramKeys = 26 * 26 * 26

// letterGrams yields the letter trigrams of s, as keys below gramKeys:
// every run of three ASCII letters, folded as LIKE folds them
// (asciiLower). Any other byte, '%' and '_' included, breaks a run, so
// the trigrams of a LIKE pattern are those of its literal runs, and a
// string the pattern matches holds every one of them.
func letterGrams(s string) iter.Seq[uint16] {
	return func(yield func(uint16) bool) {
		key, run := 0, 0
		for i := 0; i < len(s); i++ {
			c := asciiLower[s[i]]
			if c < 'a' || c > 'z' {
				run = 0
				continue
			}
			key = key*26%gramKeys + int(c-'a')
			if run++; run >= 3 && !yield(uint16(key)) {
				return
			}
		}
	}
}

// buildGrams walks every version of every slot into fresh trigram
// postings for column ci, one set per letter trigram some version holds.
// Caller holds db.commitMu.
func (t *table) buildGrams(ci int) *postings {
	if t.schema.Columns[ci].Type != String {
		return noPostings
	}
	arena := t.slots.Load()
	at := make([]int32, gramKeys) // at[key] is 1 + the index of key's set in byKey, or 0
	var byKey [][]atomic.Uint64
	for id := 0; id < arena.n; id++ {
		for v := arena.at(id).head.Load(); v != nil; v = v.prev.Load() {
			if v.cells == nil {
				continue
			}
			str, _ := v.data()[ci].(string)
			for key := range letterGrams(str) {
				if at[key] == 0 {
					byKey = append(byKey, make([]atomic.Uint64, arena.n/64+1))
					at[key] = int32(len(byKey))
				}
				byKey[at[key]-1][id>>6].Or(1 << (id & 63))
			}
		}
	}
	p := &postings{grams: make([]uint16, 0, len(byKey)), sets: make([][]atomic.Uint64, 0, len(byKey))}
	for key, k := range at {
		if k != 0 {
			p.grams = append(p.grams, uint16(key))
			p.sets = append(p.sets, byKey[k-1])
		}
	}
	return p
}

// set adds slot id to set k, which is long enough.
func (p *postings) set(k, id int) {
	p.sets[k][id>>6].Or(1 << (id & 63))
}

// post adds slot id to the sets of the keys of row, whose codes are codes,
// a version about to be published there, in every column whose postings
// are built. prev is the row of the version it replaces, or nil: a column
// whose string it already held has its trigrams' bits. Caller holds
// db.commitMu.
func (t *table) post(id int, row, prev []Value, codes *[codeSlots]uint8) {
	for s := range t.posts {
		if p := t.covering(&t.posts[s], id); p != nil {
			p.set(int(codes[s]), id)
		}
	}
	for ci := range t.grams {
		p := t.covering(&t.grams[ci], id)
		if p == nil {
			continue
		}
		str, _ := row[ci].(string)
		if prev != nil && prev[ci] == Value(str) {
			continue
		}
		for key := range letterGrams(str) {
			k, found := slices.BinarySearch(p.grams, key)
			if !found {
				words := max(t.slots.Load().n, id)/64 + 1
				if len(p.sets) > 0 {
					words = len(p.sets[0])
				}
				p = &postings{
					grams: slices.Insert(slices.Clone(p.grams), k, key),
					sets:  slices.Insert(slices.Clone(p.sets), k, make([]atomic.Uint64, words)),
				}
				t.grams[ci].Store(p)
			}
			p.set(k, id)
		}
	}
}

// covering returns the postings built at ptr, nil if none are, with sets
// that cover slot id: if they do not, it publishes a copy of them with
// every set twice as long, or as long as id needs. Caller holds
// db.commitMu.
func (t *table) covering(ptr *atomic.Pointer[postings], id int) *postings {
	p := ptr.Load()
	if p == nil || p == noPostings {
		return nil
	}
	if len(p.sets) == 0 || id>>6 < len(p.sets[0]) {
		return p
	}
	n := len(p.sets[0])
	np := &postings{boxes: p.boxes, grams: p.grams, sets: make([][]atomic.Uint64, len(p.sets))}
	for k, set := range p.sets {
		np.sets[k] = make([]atomic.Uint64, max(2*n, id>>6+1))
		for w := range set {
			np.sets[k][w].Store(set[w].Load())
		}
	}
	ptr.Store(np)
	return np
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
// conjunct at depth i, as a bitset, or nil for every slot. A coded
// conjunct whose column has code postings, built or buildable, sieves
// through them (codedSieve); a LIKE otherwise sieves through its column's
// trigram postings (gramSieve). A sieve that holds more than denseSieve
// quarters of the view is not used.
//
// Only the first conjunct may sieve: a row that fails it is rejected
// before any other runs, so leaving it out hides no other conjunct's
// error.
func (r *selectRun) sieve(i int) []uint64 {
	preds := r.plan.preds[i]
	n := r.views[i].size()
	if len(preds) == 0 || n == 0 {
		return nil
	}
	p := &preds[0]
	var post *postings
	if p.coded {
		post = r.db.postingsOf(r.views[i].tbl, p.slot)
	}
	var s []uint64
	switch {
	case post != nil:
		s = r.codedSieve(i, p, post)
	case p.op == opLike:
		s = r.gramSieve(i, p)
	}
	if s == nil {
		return nil
	}
	if tail := n % 64; tail != 0 {
		s[len(s)-1] &= 1<<tail - 1
	}
	held := 0
	for _, x := range s {
		held += bits.OnesCount64(x)
	}
	if 4*held > denseSieve*n {
		return nil
	}
	return s
}

// codedSieve is the sieve of coded conjunct p at depth i through its
// column's code postings post. It evaluates the conjunct once per string
// of the column's dictionary, into the execution's memo, and takes the
// union of code 0's set with those of the codes that pass. An error
// evaluating a string is left to the rows that hold it: no sieve, and the
// plain loop meets it where the plain evaluation would.
func (r *selectRun) codedSieve(i int, p *compiledPred, post *postings) []uint64 {
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

	union := r.sieveScratch(i)
	for w := range union {
		union[w] = post.sets[0][w].Load()
	}
	for c := 1; c <= len(post.boxes); c++ {
		if m.results[p.memo|c] == memoTrue {
			set := post.sets[c]
			for w := range union {
				union[w] |= set[w].Load()
			}
		}
	}
	return union
}

// gramSieve is the sieve of LIKE conjunct p at depth i through its
// column's trigram postings: the intersection of the sets of the letter
// trigrams in its pattern, empty if one of them is in no version. A
// pattern with no letter trigram, one that is not a string and an operand
// error (which the plain loop meets on the first row) give no sieve; so
// does a column that holds no strings.
func (r *selectRun) gramSieve(i int, p *compiledPred) []uint64 {
	arg, err := p.rhs.value(r.ec)
	pattern, ok := arg.(string)
	if err != nil || !ok {
		return nil
	}
	var post *postings
	var inter []uint64
	for key := range letterGrams(pattern) {
		if inter == nil {
			if post = r.db.gramsOf(r.views[i].tbl, p.col); post == nil {
				return nil
			}
			inter = r.sieveScratch(i)
			for w := range inter {
				inter[w] = ^uint64(0)
			}
		}
		k, found := slices.BinarySearch(post.grams, key)
		if !found {
			clear(inter)
			break
		}
		set := post.sets[k]
		for w, x := range inter {
			inter[w] = x & set[w].Load()
		}
	}
	return inter
}

// sieveScratch is the execution's bitset for the sieve at depth i, one
// bit per slot of the view, holding whatever it last held: the memo's,
// so a connection allocates it once.
func (r *selectRun) sieveScratch(i int) []uint64 {
	m := r.ec.memo
	if m == nil {
		m = new(codeMemo)
		r.ec.memo = m
	}
	if len(m.sieves) < len(r.views) {
		m.sieves = append(m.sieves, make([][]uint64, len(r.views)-len(m.sieves))...)
	}
	words := (r.views[i].size() + 63) / 64
	m.sieves[i] = slices.Grow(m.sieves[i][:0], words)[:words]
	return m.sieves[i]
}

// sieved reports whether slot id is in sieve s.
func sieved(s []uint64, id int) bool {
	return uint(id>>6) < uint(len(s)) && s[id>>6]&(1<<(id&63)) != 0
}
