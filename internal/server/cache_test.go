package server

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheGetPut(t *testing.T) {
	c := NewCache(1 << 20)
	if _, ok := c.Get("missing"); ok {
		t.Fatal("empty cache returned a value")
	}
	c.Put("a", 1, 100)
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("a", 2, 120)
	v, _ = c.Get("a")
	if v.(int) != 2 {
		t.Fatalf("replacement not visible: %v", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after replace", c.Len())
	}
	if c.Bytes() != 120 {
		t.Fatalf("Bytes = %d, want 120", c.Bytes())
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	// One shard's budget is maxBytes/numShards; craft keys that land in
	// the same shard by brute force.
	c := NewCache(numShards * 300) // 300 bytes per shard
	shard0 := c.shard("anchor")
	keys := []string{"anchor"}
	for i := 0; len(keys) < 4; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shard(k) == shard0 {
			keys = append(keys, k)
		}
	}
	for _, k := range keys[:3] {
		c.Put(k, k, 100) // fills the shard exactly
	}
	// Touch the oldest so the middle key becomes LRU.
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("anchor missing before eviction")
	}
	c.Put(keys[3], "new", 100)
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := c.Get(keys[3]); !ok {
		t.Fatal("new entry missing")
	}
}

func TestCacheRejectsOversized(t *testing.T) {
	c := NewCache(numShards * 100)
	c.Put("huge", "x", 101) // bigger than one shard
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized entry was cached")
	}
	if c.Bytes() != 0 {
		t.Fatalf("Bytes = %d after rejected insert", c.Bytes())
	}
}

// TestCacheOversizedReplacementDropsOldValue: replacing a cached value
// with one too large to cache must not leave the old value behind — Put is
// a replacement, so a reader finding the old entry would see stale data.
func TestCacheOversizedReplacementDropsOldValue(t *testing.T) {
	c := NewCache(numShards * 100)
	c.Put("k", "old", 40)
	if v, ok := c.Get("k"); !ok || v.(string) != "old" {
		t.Fatalf("seed entry missing: %v, %v", v, ok)
	}
	c.Put("k", "new-but-huge", 101) // exceeds the 100-byte shard budget
	if v, ok := c.Get("k"); ok {
		t.Fatalf("stale value %v survived an oversized replacement", v)
	}
	if c.Bytes() != 0 || c.Len() != 0 {
		t.Fatalf("cache not empty after drop: %d entries, %d bytes", c.Len(), c.Bytes())
	}
}

// TestCachePrefixOccupancy: per-prefix entry/byte accounting must stay
// consistent through inserts, replacements, evictions and oversized
// drops, and sum to the cache totals.
func TestCachePrefixOccupancy(t *testing.T) {
	c := NewCache(1 << 20)
	c.Put("search\x1fq1", "a", 100)
	c.Put("search\x1fq2", "b", 50)
	c.Put("tile\x1f0\x1f0", "png", 300)
	c.Put("bare-key", "x", 10)

	p := c.Prefixes()
	if got := p["search"]; got.Entries != 2 || got.Bytes != 150 {
		t.Fatalf("search prefix: %+v", got)
	}
	if got := p["tile"]; got.Entries != 1 || got.Bytes != 300 {
		t.Fatalf("tile prefix: %+v", got)
	}
	if got := p["bare-key"]; got.Entries != 1 || got.Bytes != 10 {
		t.Fatalf("unseparated key prefix: %+v", got)
	}

	// Replacement adjusts bytes, not entries.
	c.Put("search\x1fq1", "a2", 120)
	if got := c.Prefixes()["search"]; got.Entries != 2 || got.Bytes != 170 {
		t.Fatalf("after replace: %+v", got)
	}

	// The per-prefix view always sums to the cache totals.
	var entries int
	var bytes int64
	for _, occ := range c.Prefixes() {
		entries += occ.Entries
		bytes += occ.Bytes
	}
	if entries != c.Len() || bytes != c.Bytes() {
		t.Fatalf("prefix sums %d/%d, cache totals %d/%d", entries, bytes, c.Len(), c.Bytes())
	}
}

// TestCachePrefixEvictionAccounting: evicted and dropped entries leave
// the prefix map (an empty prefix disappears entirely).
func TestCachePrefixEvictionAccounting(t *testing.T) {
	c := NewCache(numShards * 300)
	shard0 := c.shard("tile\x1fanchor")
	keys := []string{"tile\x1fanchor"}
	for i := 0; len(keys) < 4; i++ {
		k := fmt.Sprintf("enrich\x1fk%d", i)
		if c.shard(k) == shard0 {
			keys = append(keys, k)
		}
	}
	for _, k := range keys[:3] {
		c.Put(k, k, 100)
	}
	c.Put(keys[3], "overflow", 100) // evicts the LRU tile entry
	p := c.Prefixes()
	if _, alive := p["tile"]; alive {
		t.Fatalf("evicted-out prefix still accounted: %+v", p)
	}
	if got := p["enrich"]; got.Entries != 3 || got.Bytes != 300 {
		t.Fatalf("enrich prefix after eviction: %+v", got)
	}
	// Oversized replacement removes the old entry's accounting too.
	c.Put(keys[1], "huge", numShards*300+1)
	if got := c.Prefixes()["enrich"]; got.Entries != 2 || got.Bytes != 200 {
		t.Fatalf("enrich prefix after oversized drop: %+v", got)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%37)
				c.Put(k, g, 50)
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 37 {
		t.Fatalf("Len = %d, want 37", c.Len())
	}
}
