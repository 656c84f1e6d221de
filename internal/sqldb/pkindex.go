package sqldb

import (
	"maps"
	"math"
	"sync"
	"sync/atomic"
)

// pkIndex maps primary-key values to slot ids. Like the secondary
// indexes it holds hints, not truth: an entry is never removed, a key
// that is re-used points at its newest slot, and every caller re-checks
// the visible row.
//
// A probe is the innermost step of every join and every point lookup, so
// get takes no lock and writes no shared memory. Keys inside a window
// [0, len(dense)) live in a flat array of slot+1 (0 = absent) that is
// published atomically and grown by copy + publish, like the slot arena;
// the window follows the table (see fits), which covers auto-assigned
// keys and the 1..n keys of a populated table. Keys outside it —
// negative, huge, far ahead of the table — live in a map under mu, which
// get reaches only for a key outside the window of a table that has any.
// A key is in the map only while it is outside the window: grow moves
// what the new window covers.
//
// set, grow and clone are called with db.commitMu held (one writer at a
// time); get from any goroutine. Slot ids are stored as int32, which
// bounds a table at 2^31-2 slots.
type pkIndex struct {
	dense atomic.Pointer[[]atomic.Int32]

	mu      sync.RWMutex
	sparse  map[int64]int32 // key -> slot, for keys outside the window
	nSparse atomic.Int64    // len(sparse); lets get skip the lock

	n int64 // distinct keys ever set; writers only
}

// pkWindowFactor and pkWindowSlack say how sparse the keys of a table may
// be and still be indexed densely: a key fits while it is below
// factor × (keys so far) + slack. At 4 bytes a key the array then costs
// at most what the map it replaced did (~36 B a key), and a shard that
// holds every eighth customer still probes lock-free.
const (
	pkWindowFactor = 8
	pkWindowSlack  = 1024
)

func newPKIndex() *pkIndex {
	p := &pkIndex{sparse: make(map[int64]int32)}
	p.dense.Store(new([]atomic.Int32))
	return p
}

// get returns the slot hint for key.
func (p *pkIndex) get(key int64) (int, bool) {
	for {
		dp := p.dense.Load()
		if d := *dp; uint64(key) < uint64(len(d)) {
			v := d[key].Load()
			return int(v) - 1, v != 0
		}
		if p.nSparse.Load() != 0 {
			p.mu.RLock()
			slot, ok := p.sparse[key]
			p.mu.RUnlock()
			if ok {
				return int(slot), true
			}
		}
		// grow publishes the wider array before it takes the moved keys
		// out of the map, so a miss in the map is final only if the window
		// has not changed meanwhile.
		if p.dense.Load() == dp {
			return 0, false
		}
	}
}

// fits reports whether key belongs in the dense window of a table that
// holds p.n keys.
func (p *pkIndex) fits(key int64) bool {
	return key >= 0 && key/pkWindowFactor <= p.n+pkWindowSlack/pkWindowFactor
}

// set maps key to slot, replacing an older mapping.
func (p *pkIndex) set(key int64, slot int) {
	if slot >= math.MaxInt32 {
		panic("sqldb: table exceeds 2^31-2 slots")
	}
	d := *p.dense.Load()
	if uint64(key) >= uint64(len(d)) && p.fits(key) {
		d = p.grow(key)
	}
	if uint64(key) < uint64(len(d)) {
		if d[key].Swap(int32(slot)+1) == 0 {
			p.n++
		}
		return
	}
	p.mu.Lock()
	if _, had := p.sparse[key]; !had {
		p.n++
		p.nSparse.Add(1)
	}
	p.sparse[key] = int32(slot)
	p.mu.Unlock()
}

// grow publishes a window that covers key (at least doubled, so growth
// is amortised) and moves the map's keys that now fall inside it.
func (p *pkIndex) grow(key int64) []atomic.Int32 {
	old := *p.dense.Load()
	nd := copyDense(old, max(key+1, 2*int64(len(old)), 64))
	p.mu.Lock()
	var moved []int64
	for k, slot := range p.sparse {
		if uint64(k) < uint64(len(nd)) {
			nd[k].Store(slot + 1)
			moved = append(moved, k)
		}
	}
	p.dense.Store(&nd)
	for _, k := range moved {
		delete(p.sparse, k)
	}
	p.nSparse.Add(-int64(len(moved)))
	p.mu.Unlock()
	return nd
}

// copyDense returns a new array of n entries that starts with old's. (The
// entries are atomics, which the copy builtin may not move.)
func copyDense(old []atomic.Int32, n int64) []atomic.Int32 {
	nd := make([]atomic.Int32, n)
	for i := range old {
		nd[i].Store(old[i].Load())
	}
	return nd
}

// clone returns an independent copy.
func (p *pkIndex) clone() *pkIndex {
	old := *p.dense.Load()
	nd := copyDense(old, int64(len(old)))
	c := &pkIndex{sparse: maps.Clone(p.sparse), n: p.n}
	c.dense.Store(&nd)
	c.nSparse.Store(int64(len(c.sparse)))
	return c
}
