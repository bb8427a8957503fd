package mpi

import (
	"math/bits"
	"sync"
)

// Payload buffer pool. Every simulated message used to allocate a fresh
// copy of its payload; at one h-broadcast plus one pivot broadcast plus
// one gather per level, a single solve produced O(n²) garbage per rank.
// The pool recycles transport buffers across levels, worlds and ranks:
// send-side copies draw from it, and consumers that know a received
// buffer is dead hand it back via Proc.Recycle.
//
// Buffers are kept in power-of-two size classes so a recycled buffer can
// serve any request up to its capacity. sync.Pool keeps the whole scheme
// race-free and lets the GC drain it under memory pressure.
//
// A sync.Pool stores interface values, and putting a slice in one boxes
// its 24-byte header on the heap — one allocation per recycle, which was
// the engine's largest single allocation source (staticcheck SA6002). The
// pools therefore hold pointer-shaped *bufBox entries, and an emptied box
// goes to a pool of its own, so a warm GetBuf → PutBuf round trip
// allocates nothing (TestBufPoolRoundTripAllocs); what a whole solve
// still allocates per message is bounded by TestPingPongAllocsPerMessage
// and TestBcastRecycleAllocsPerMessage.

// maxPoolClass bounds pooled capacity: classes run up to 1<<maxPoolClass
// float64 elements (8 MiB); larger requests go straight to the allocator
// and buffers of twice that capacity or more are left to the GC.
const maxPoolClass = 20

// bufBox carries one pooled buffer through a sync.Pool without boxing the
// slice header. b is nil while the box rests in boxPool, so an idle box
// never pins a payload.
type bufBox struct{ b []float64 }

var (
	bufPools [maxPoolClass + 1]sync.Pool
	boxPool  = sync.Pool{New: func() any { return new(bufBox) }}
)

// getClass returns the size class that serves a request for n ≥ 1
// elements, ⌈log₂ n⌉: every buffer filed there has capacity ≥ n.
func getClass(n int) (class int, pooled bool) {
	class = bits.Len(uint(n - 1))
	return class, class <= maxPoolClass
}

// putClass returns the size class a buffer of capacity c ≥ 1 is filed
// under, ⌊log₂ c⌋: c ≥ 1<<class, so it serves any request of that class.
func putClass(c int) (class int, pooled bool) {
	class = bits.Len(uint(c)) - 1
	return class, class <= maxPoolClass
}

// GetBuf returns a length-n buffer, reusing pooled storage of n's size
// class when available. Contents are unspecified; callers must overwrite
// every element before reading.
func GetBuf(n int) []float64 {
	if n == 0 {
		return nil
	}
	c, pooled := getClass(n)
	if !pooled {
		return make([]float64, n)
	}
	if v := bufPools[c].Get(); v != nil {
		box := v.(*bufBox)
		buf := box.b
		box.b = nil
		boxPool.Put(box)
		return buf[:n]
	}
	return make([]float64, n, 1<<c)
}

// PutBuf hands a buffer back to the pool. The caller must hold the only
// live reference — in particular, never recycle a sub-slice of a buffer
// whose other parts are still in use — and must not touch buf afterwards.
// Buffers of any origin and capacity are accepted; oversized ones are
// dropped to the GC.
func PutBuf(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	c, pooled := putClass(cap(buf))
	if !pooled {
		return
	}
	box := boxPool.Get().(*bufBox)
	box.b = buf[:0:cap(buf)]
	bufPools[c].Put(box)
}

// Recycle returns a received payload (or a collective's result) to the
// shared buffer pool once this rank is done with it. Recycling is an
// optional optimisation: buffers that are simply dropped are garbage
// collected as before. Only recycle a whole buffer you own exclusively.
func (p *Proc) Recycle(buf []float64) { PutBuf(buf) }
