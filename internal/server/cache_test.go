package server

import (
	"fmt"
	"testing"

	"repro/internal/telemetry"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes the LRU victim
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be resident")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func TestCachePutOverwrites(t *testing.T) {
	c := NewCache(4)
	c.Put("k", []byte("old"))
	c.Put("k", []byte("new"))
	if b, _ := c.Get("k"); string(b) != "new" {
		t.Fatalf("got %q, want new", b)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(64)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%100)
				c.Put(k, []byte(k))
				if b, ok := c.Get(k); ok && string(b) != k {
					t.Errorf("got %q under key %q", b, k)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

func TestCacheEvictionInstruments(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCache(2)
	c.entriesGauge = reg.Gauge("g", "")
	c.evictedCapacity = reg.Counter("cap", "")

	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	c.Put("c", []byte("C")) // capacity eviction of a
	if got := c.evictedCapacity.Value(); got != 1 {
		t.Fatalf("capacity evictions = %g, want 1", got)
	}
	if got := c.entriesGauge.Value(); got != 2 {
		t.Fatalf("entries gauge = %g, want 2", got)
	}
}
