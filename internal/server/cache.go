package server

import (
	"container/list"
	"hash/fnv"
	"strings"
	"sync"
)

// numShards splits the cache's key space so concurrent requests for
// different queries never contend on one lock. 16 is plenty: with the
// worker-pool and handler concurrency this daemon sustains, per-shard
// contention is unmeasurable beyond that.
const numShards = 16

// Cache is a sharded, byte-budgeted LRU cache shared by every endpoint of
// the daemon: SPELL results, enrichment tables and rendered PNG tiles all
// live here, each under a canonicalized query key. Eviction is
// least-recently-used per shard, driven by an approximate byte cost the
// caller supplies with each value.
type Cache struct {
	shards [numShards]cacheShard
	// onEvict, when set (before concurrent use, via OnEvict), observes every
	// key removed by LRU budget pressure — not replacements or oversized
	// drops. It runs outside the shard lock, so the callback may touch the
	// cache.
	onEvict func(key string)
}

// OnEvict installs the eviction observer. Call before the cache sees
// traffic; the prefetcher uses it to count speculative tiles evicted before
// any foreground request touched them.
func (c *Cache) OnEvict(fn func(key string)) { c.onEvict = fn }

type cacheShard struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	// prefixes tracks entry-count and byte occupancy per key prefix (the
	// token before the first 0x1f separator: "search", "enrich", "tile",
	// "scatter", "escatter"), maintained on every insert, replace and
	// eviction — the per-workload occupancy picture /api/stats surfaces.
	prefixes map[string]*PrefixOccupancy
}

// PrefixOccupancy is one key family's share of the cache.
type PrefixOccupancy struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// keyPrefix is the cache key's leading token (up to the first 0x1f field
// separator every endpoint's key discipline starts with).
func keyPrefix(key string) string {
	if i := strings.IndexByte(key, 0x1f); i >= 0 {
		return key[:i]
	}
	return key
}

// account adjusts a prefix's occupancy; callers hold the shard lock.
func (s *cacheShard) account(prefix string, entries int, bytes int64) {
	p := s.prefixes[prefix]
	if p == nil {
		p = &PrefixOccupancy{}
		s.prefixes[prefix] = p
	}
	p.Entries += entries
	p.Bytes += bytes
	if p.Entries == 0 {
		delete(s.prefixes, prefix)
	}
}

type cacheEntry struct {
	key  string
	val  any
	cost int64
}

// NewCache builds a cache with a total byte budget split evenly across the
// shards. A non-positive budget defaults to 64 MiB.
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].maxBytes = maxBytes / numShards
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].prefixes = make(map[string]*PrefixOccupancy)
	}
	return c
}

func (c *Cache) shard(key string) *cacheShard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return &c.shards[h.Sum32()%numShards]
}

// Get returns the cached value for key and marks it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put inserts (or replaces) key with the given value and approximate byte
// cost, evicting least-recently-used entries until the shard fits its
// budget. Values larger than a whole shard are not cached at all.
func (c *Cache) Put(key string, val any, cost int64) {
	if cost < 1 {
		cost = 1
	}
	s := c.shard(key)
	s.mu.Lock()
	prefix := keyPrefix(key)
	if cost > s.maxBytes {
		// The value can never fit, but merely skipping the insert would
		// leave any previous value cached under the key — stale from the
		// caller's point of view, since Put is a replacement. Drop it.
		if el, ok := s.items[key]; ok {
			e := el.Value.(*cacheEntry)
			s.ll.Remove(el)
			delete(s.items, key)
			s.bytes -= e.cost
			s.account(prefix, -1, -e.cost)
		}
		s.mu.Unlock()
		return
	}
	if el, ok := s.items[key]; ok {
		e := el.Value.(*cacheEntry)
		s.bytes += cost - e.cost
		s.account(prefix, 0, cost-e.cost)
		e.val, e.cost = val, cost
		s.ll.MoveToFront(el)
	} else {
		s.items[key] = s.ll.PushFront(&cacheEntry{key: key, val: val, cost: cost})
		s.bytes += cost
		s.account(prefix, 1, cost)
	}
	// Evicted keys are collected under the lock and reported after it: the
	// observer may re-enter the cache.
	var evicted []string
	for s.bytes > s.maxBytes {
		el := s.ll.Back()
		if el == nil {
			break
		}
		e := el.Value.(*cacheEntry)
		s.ll.Remove(el)
		delete(s.items, e.key)
		s.bytes -= e.cost
		s.account(keyPrefix(e.key), -1, -e.cost)
		if c.onEvict != nil {
			evicted = append(evicted, e.key)
		}
	}
	s.mu.Unlock()
	for _, k := range evicted {
		c.onEvict(k)
	}
}

// each visits every shard under its lock.
func (c *Cache) each(visit func(*cacheShard)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		visit(s)
		s.mu.Unlock()
	}
}

// Len returns the number of cached entries across all shards.
func (c *Cache) Len() (n int) {
	c.each(func(s *cacheShard) { n += len(s.items) })
	return n
}

// Bytes returns the total approximate cost of all cached entries.
func (c *Cache) Bytes() (b int64) {
	c.each(func(s *cacheShard) { b += s.bytes })
	return b
}

// MaxBytes returns the budget: what Bytes can reach.
func (c *Cache) MaxBytes() (b int64) {
	c.each(func(s *cacheShard) { b += s.maxBytes })
	return b
}

// Prefixes aggregates per-prefix occupancy across the shards: how many
// entries and approximate bytes each key family ("search", "enrich",
// "tile", ...) currently holds. Sum of the returned occupancies equals
// Len()/Bytes().
func (c *Cache) Prefixes() map[string]PrefixOccupancy {
	out := make(map[string]PrefixOccupancy)
	c.each(func(s *cacheShard) {
		for prefix, p := range s.prefixes {
			agg := out[prefix]
			agg.Entries += p.Entries
			agg.Bytes += p.Bytes
			out[prefix] = agg
		}
	})
	return out
}
