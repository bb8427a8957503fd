package server

import (
	"container/list"
	"sync"

	"repro/internal/telemetry"
)

// Cache is an LRU byte cache for marshalled response bodies.
//
// The advisor's workloads are deterministic pure functions of the
// canonicalized request (the analytic engine has no hidden state), so a
// cached body is not an approximation of a fresh compute — it IS the
// fresh compute, byte for byte, and never goes stale. Memory is bounded
// by entry count alone (the grid of plausible requests is small and
// bodies are a few KB).
type Cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	// Instrumentation, optionally attached by the server after
	// construction (telemetry instruments are nil-safe no-ops until
	// then). entriesGauge tracks residency; evictedCapacity counts
	// bodies pushed out because the working set exceeds CacheEntries — a
	// sizing signal.
	entriesGauge    *telemetry.Gauge
	evictedCapacity *telemetry.Counter
}

type cacheEntry struct {
	key  string
	body []byte
}

// NewCache returns a cache holding at most maxEntries bodies.
// maxEntries must be positive.
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		panic("server: cache capacity must be positive")
	}
	return &Cache{
		max:   maxEntries,
		ll:    list.New(),
		items: make(map[string]*list.Element, maxEntries),
	}
}

// Get returns the cached body for key, refreshing its recency.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put stores body under key as the most recent entry, evicting the least
// recently used entry beyond capacity. The caller must not mutate body
// afterwards (handlers never do: bodies are write-once marshal results).
func (c *Cache) Put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).body = body
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		delete(c.items, el.Value.(*cacheEntry).key)
		c.ll.Remove(el)
		c.evictedCapacity.Inc()
	}
	c.entriesGauge.Set(float64(c.ll.Len()))
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
