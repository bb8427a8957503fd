package server

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"repro/internal/telemetry"
)

// errComputePanicked is what followers receive when their leader's
// computation panicked (see memo.Do).
var errComputePanicked = errors.New("computation panicked")

// memo is the serving layer's one table per request key: the result
// cache (dedup across time) and the singleflight (dedup across
// concurrent requests) in one map under one mutex. An entry is either a
// stored body — in the LRU list, counted against the capacity — or a
// computation in flight, which is neither. The leader's entry becomes
// the stored body in the same critical section that ends its flight, so
// a request arriving at any moment finds the flight or the body, never
// neither: N identical requests cost exactly one computation.
//
// The advisor's workloads are deterministic pure functions of the
// canonicalized request, so a stored body IS the fresh compute, byte for
// byte, and never goes stale. Memory is bounded by entry count alone
// (the grid of plausible requests is small and bodies are a few KB).
type memo struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // stored bodies only; front = most recently used
	entries map[string]*entry

	// Instrumentation, optionally attached by the server after
	// construction (telemetry instruments are nil-safe no-ops until
	// then). entriesGauge tracks stored bodies; evictedCapacity counts
	// bodies pushed out because the working set exceeds CacheEntries — a
	// sizing signal.
	entriesGauge    *telemetry.Gauge
	evictedCapacity *telemetry.Counter
}

// entry is one key's state. While el is nil the entry is a flight:
// followers wait on done, then read body and err, which the leader
// writes before closing it. Once stored (el set, under the mutex) an
// entry is never mutated again: a later Put replaces it.
type entry struct {
	key  string
	body []byte
	err  error
	el   *list.Element // the entry's place in the LRU list; nil in flight
	done chan struct{} // closed when the flight ends; nil for a Put body
}

// newMemo returns a memo storing at most maxEntries bodies.
// maxEntries must be positive.
func newMemo(maxEntries int) *memo {
	if maxEntries <= 0 {
		panic("server: cache capacity must be positive")
	}
	return &memo{
		max:     maxEntries,
		ll:      list.New(),
		entries: make(map[string]*entry, maxEntries),
	}
}

// Get returns the stored body for key, refreshing its recency. A key in
// flight is a miss.
func (m *memo) Get(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok || e.el == nil {
		return nil, false
	}
	m.ll.MoveToFront(e.el)
	return e.body, true
}

// Put stores body under key as the most recent entry, replacing a body
// stored there and evicting the least recently used beyond capacity. A
// key in flight is left to its leader, which stores its own body. The
// caller must not mutate body afterwards (handlers never do: bodies are
// write-once marshal results).
func (m *memo) Put(key string, body []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[key]; ok && e.el == nil {
		return
	}
	m.store(&entry{key: key, body: body})
}

// store makes e its key's stored body, the most recently used one, and
// evicts beyond capacity. m.mu must be held.
func (m *memo) store(e *entry) {
	if old, ok := m.entries[e.key]; ok && old.el != nil {
		m.ll.Remove(old.el)
	}
	m.entries[e.key] = e
	e.el = m.ll.PushFront(e)
	for m.ll.Len() > m.max {
		delete(m.entries, m.ll.Remove(m.ll.Back()).(*entry).key)
		m.evictedCapacity.Inc()
	}
	m.entriesGauge.Set(float64(m.ll.Len()))
}

// Len returns the number of stored bodies.
func (m *memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}

// Do returns the body stored for key, waits for key's computation in
// flight, or else leads: runs fn and, on success only, stores its body.
// shared is true for a caller that did not run fn and received a body or
// the leader's error; a follower whose ctx expires while waiting shared
// nothing (counting it as coalesced would double-book it with the
// deadline shed accounting). The leader computes regardless, so a storm
// of short-deadline followers cannot starve the computation they wait
// on. If fn panics, the key is still released, followers get
// errComputePanicked, and the panic goes on up the leader's stack.
func (m *memo) Do(ctx context.Context, key string, fn func() ([]byte, error)) (body []byte, shared bool, err error) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		if e.el != nil {
			m.ll.MoveToFront(e.el)
			m.mu.Unlock()
			return e.body, true, nil
		}
		m.mu.Unlock()
		select {
		case <-e.done:
			return e.body, true, e.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	e := &entry{key: key, done: make(chan struct{}), err: errComputePanicked}
	m.entries[key] = e
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		if e.err == nil {
			m.store(e)
		} else {
			delete(m.entries, key)
		}
		m.mu.Unlock()
		close(e.done)
	}()

	e.body, e.err = fn()
	return e.body, false, e.err
}
