package serve

import (
	"container/list"
	"sync"
)

// lruCache is a small, mutex-guarded, bounded LRU — the risk-map response
// cache, whose values are encoded response bodies. Park-wide map generation
// costs seconds of model evaluation while a cached response costs a map
// lookup, and rangers query the same handful of nominal efforts, so a tiny
// cache absorbs almost all riskmap traffic.
type lruCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List
	items map[string]*list.Element
	// hits / misses count get outcomes over the cache's lifetime — the
	// observable signal behind /statusz cache stats, which is how the fleet
	// load harness measures whether pawsgate's affinity routing actually
	// concentrates repeat riskmap keys on the same replica. evictions
	// counts entries displaced by the size bound: a high rate relative to
	// misses means the working set of (model, effort) keys outgrows the
	// configured cache.
	hits, misses, evictions int64
}

// cacheStats is a point-in-time summary of the LRU, served by /statusz.
type cacheStats struct {
	Size      int   `json:"size"`
	Max       int   `json:"max"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

type lruEntry struct {
	key string
	val any
}

// newLRU builds a cache bounded to max entries (max ≤ 0 disables caching).
func newLRU(max int) *lruCache {
	return &lruCache{max: max, ll: list.New(), items: map[string]*list.Element{}}
}

// get returns the cached value and marks it most recently used.
func (c *lruCache) get(key string) (any, bool) {
	if c.max <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// add inserts or refreshes a value, evicting the least recently used entry
// when the bound is exceeded.
func (c *lruCache) add(key string, val any) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*lruEntry).key)
		c.evictions++
	}
}

// len reports the current entry count.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// stats reports the cache's current size and lifetime hit/miss counts.
func (c *lruCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{Size: c.ll.Len(), Max: c.max, Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
