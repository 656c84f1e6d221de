package sqldb

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// stmtCacheSize bounds the per-DB prepared-statement cache. TPC-W
// issues a few dozen distinct parameterized statements, so the bound
// keeps every hot plan resident while non-parameterized SQL (literals
// inlined into the text) can no longer grow the cache without bound.
const stmtCacheSize = 256

// stmtCache is a small LRU over parsed-and-planned statements keyed by
// SQL text. Every entry records the index epoch its plan was built
// under; an entry from an older epoch is a miss (and is evicted), so a
// CreateIndex invalidates every cached plan instead of leaving stale
// full-scan plans resident.
type stmtCache struct {
	mu    sync.Mutex
	m     map[string]*list.Element
	order *list.List // front = most recently used

	hits   atomic.Int64
	misses atomic.Int64
}

type stmtCacheEntry struct {
	sql   string
	s     stmt
	epoch int64 // index epoch the plan was built under
}

func newStmtCache() *stmtCache {
	return &stmtCache{
		m:     make(map[string]*list.Element, stmtCacheSize),
		order: list.New(),
	}
}

// get looks a statement up at the current index epoch, counting the hit
// or miss and refreshing recency on a hit. An entry planned under an
// older epoch is evicted and reported as a miss — the caller reparses
// and replans.
func (c *stmtCache) get(sql string, epoch int64) (stmt, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[sql]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	ent := el.Value.(*stmtCacheEntry)
	if ent.epoch != epoch {
		c.order.Remove(el)
		delete(c.m, sql)
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.order.MoveToFront(el)
	return ent.s, true
}

// put inserts a parsed statement planned at epoch, evicting the least
// recently used entry when the cache is full. A concurrent insert of
// the same SQL (two goroutines parsing the same miss) keeps the newer
// epoch.
func (c *stmtCache) put(sql string, s stmt, epoch int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[sql]; ok {
		ent := el.Value.(*stmtCacheEntry)
		if epoch > ent.epoch {
			ent.s, ent.epoch = s, epoch
		}
		c.order.MoveToFront(el)
		return
	}
	c.m[sql] = c.order.PushFront(&stmtCacheEntry{sql: sql, s: s, epoch: epoch})
	if c.order.Len() > stmtCacheSize {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.m, oldest.Value.(*stmtCacheEntry).sql)
	}
}

// len reports the resident entry count.
func (c *stmtCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
