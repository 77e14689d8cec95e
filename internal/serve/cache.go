package serve

import (
	"container/list"
	"sync"
)

// logitCache is a sharded LRU from (model version, node) to that node's
// logit row. Sharding by node ID keeps lock contention off the batch path;
// versioned keys make swap invalidation free — entries written under an old
// model can never be hit again and simply age out, while Reset drops them
// eagerly so a swap also releases the memory.
type logitCache struct {
	shards   []cacheShard
	perShard int
}

type cacheKey struct {
	version uint64
	node    int
}

type cacheEntry struct {
	key    cacheKey
	logits []float64
}

type cacheShard struct {
	mu      sync.Mutex
	order   *list.List // front = most recent
	entries map[cacheKey]*list.Element
}

const cacheShardCount = 16

// newLogitCache builds a cache holding about capacity rows in total.
// capacity <= 0 returns nil; a nil cache misses everything and stores
// nothing, so the service can hold one unconditionally.
func newLogitCache(capacity int) *logitCache {
	if capacity <= 0 {
		return nil
	}
	per := capacity / cacheShardCount
	if per < 1 {
		per = 1
	}
	c := &logitCache{shards: make([]cacheShard, cacheShardCount), perShard: per}
	for i := range c.shards {
		c.shards[i].order = list.New()
		c.shards[i].entries = make(map[cacheKey]*list.Element)
	}
	return c
}

func (c *logitCache) shard(node int) *cacheShard {
	return &c.shards[uint(node)%uint(len(c.shards))]
}

// Get returns the cached logit row for (version, node). The returned slice
// is shared and must be treated as read-only.
func (c *logitCache) Get(version uint64, node int) ([]float64, bool) {
	if c == nil {
		return nil, false
	}
	sh := c.shard(node)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[cacheKey{version, node}]
	if !ok {
		return nil, false
	}
	sh.order.MoveToFront(el)
	return el.Value.(*cacheEntry).logits, true
}

// Put stores logits for (version, node), evicting the shard's least
// recently used row when full. The slice is stored as-is (callers hand over
// ownership of a fresh copy).
func (c *logitCache) Put(version uint64, node int, logits []float64) {
	if c == nil {
		return
	}
	sh := c.shard(node)
	key := cacheKey{version, node}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[key]; ok {
		el.Value.(*cacheEntry).logits = logits
		sh.order.MoveToFront(el)
		return
	}
	for sh.order.Len() >= c.perShard {
		oldest := sh.order.Back()
		sh.order.Remove(oldest)
		delete(sh.entries, oldest.Value.(*cacheEntry).key)
	}
	sh.entries[key] = sh.order.PushFront(&cacheEntry{key: key, logits: logits})
}

// Reset drops every entry — called on model swap so stale rows release
// their memory immediately rather than aging out.
func (c *logitCache) Reset() {
	if c == nil {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.order.Init()
		for k := range sh.entries {
			delete(sh.entries, k)
		}
		sh.mu.Unlock()
	}
}
