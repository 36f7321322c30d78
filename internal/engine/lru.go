package engine

import (
	"container/list"
	"sync"
)

// lruCache is a size-aware LRU: every entry carries a byte cost and the
// cache evicts least-recently-used entries whenever the total cost
// exceeds the budget. Costs are the caller's estimates (a compilation
// charges policyBytes + fddBytes + builderBytes, a report reportBytes);
// the point is bounding resident memory, not exact accounting. The cache
// keeps the one count of its hits, misses and evictions that Stats and
// the fwengine_cache_* families both read.
type lruCache[V any] struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits, misses, evictions uint64
}

type lruEntry[V any] struct {
	key  string
	val  V
	size int64
}

func newLRU[V any](maxBytes int64) *lruCache[V] {
	return &lruCache[V]{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the entry for key, marking it most recently used, and
// counts the lookup as one hit or one miss.
func (c *lruCache[V]) get(key string) (V, bool) {
	return c.lookup(key, true)
}

// peek is get without the count: a recheck of a lookup already counted,
// or a probe whose hit the caller counts once it uses it (countHits).
func (c *lruCache[V]) peek(key string) (V, bool) {
	return c.lookup(key, false)
}

// countHits counts n hits of lookups made with peek.
func (c *lruCache[V]) countHits(n int) {
	c.mu.Lock()
	c.hits += uint64(n)
	c.mu.Unlock()
}

func (c *lruCache[V]) lookup(key string, count bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if count {
		if ok {
			c.hits++
		} else {
			c.misses++
		}
	}
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// add inserts (or replaces) key, then evicts from the cold end until the
// budget holds again, returning how many entries were evicted. An entry
// larger than the whole budget is evicted immediately — admitting it
// would just flush everything else for a value that can never stay
// resident.
func (c *lruCache[V]) add(key string, v V, size int64) (evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry[V])
		c.bytes += size - e.size
		e.val, e.size = v, size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: v, size: size})
		c.bytes += size
	}
	return c.evict()
}

// recharge sets the charge of key's entry to size, provided the entry
// still holds v (V's dynamic values must be comparable), then evicts from
// the cold end until the budget holds again, this entry included. It
// reports whether the entry was there to charge.
func (c *lruCache[V]) recharge(key string, v V, size int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	e := el.Value.(*lruEntry[V])
	if any(e.val) != any(v) {
		return false
	}
	c.bytes += size - e.size
	e.size = size
	c.evict()
	return true
}

// evict drops entries from the cold end while the cache is over budget
// and returns how many it dropped. The caller holds c.mu.
func (c *lruCache[V]) evict() (evicted int) {
	for c.bytes > c.maxBytes && c.ll.Len() > 0 {
		back := c.ll.Back()
		e := back.Value.(*lruEntry[V])
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= e.size
		c.evictions++
		evicted++
	}
	return evicted
}

// stats is a point-in-time snapshot of the cache's size and counters.
func (c *lruCache[V]) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// keysMRU returns the cached keys from most to least recently used
// (test/introspection helper).
func (c *lruCache[V]) keysMRU() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry[V]).key)
	}
	return out
}
