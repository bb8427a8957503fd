package server

import (
	"context"
	"errors"
	"sync"
)

// errComputePanicked is what followers receive when their leader's
// computation panicked (see Coalescer.Do).
var errComputePanicked = errors.New("computation panicked")

// Coalescer deduplicates concurrent identical computations (singleflight):
// the first caller for a key becomes the leader and runs the function;
// followers arriving while it is in flight block on the same result.
// Combined with the response cache this gives the serving layer its core
// guarantee: N concurrent identical requests cost exactly one model
// evaluation — the leader computes, followers share, and everyone after
// completion hits the cache.
type Coalescer struct {
	mu    sync.Mutex
	calls map[string]*coalescedCall
}

type coalescedCall struct {
	done chan struct{} // closed when body/err are final
	body []byte
	err  error
}

// NewCoalescer returns an empty coalescer.
func NewCoalescer() *Coalescer {
	return &Coalescer{calls: make(map[string]*coalescedCall)}
}

// Do runs fn for key unless an identical call is already in flight, in
// which case it waits for that call's result instead. The returned
// shared flag is true for followers that actually received the leader's
// result (or its error); a follower whose ctx expires while waiting
// reports shared=false — it shared nothing, and counting it as coalesced
// would double-book it with the deadline shed accounting. The leader
// keeps computing regardless (its result still lands in the cache for
// future requests), so a storm of short-deadline followers cannot starve
// the computation they are all waiting on. If fn panics, the key is
// still released, followers get errComputePanicked, and the panic goes
// on up the leader's stack.
func (c *Coalescer) Do(ctx context.Context, key string, fn func() ([]byte, error)) (body []byte, shared bool, err error) {
	c.mu.Lock()
	if call, ok := c.calls[key]; ok {
		c.mu.Unlock()
		select {
		case <-call.done:
			return call.body, true, call.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	call := &coalescedCall{done: make(chan struct{}), err: errComputePanicked}
	c.calls[key] = call
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.calls, key)
		c.mu.Unlock()
		close(call.done)
	}()

	call.body, call.err = fn()
	return call.body, false, call.err
}
