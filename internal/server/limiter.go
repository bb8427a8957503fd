package server

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/telemetry"
)

// ErrQueueFull reports that the admission queue is at capacity; the
// request is shed immediately (429 Retry-After) instead of waiting.
var ErrQueueFull = errors.New("server: admission queue full")

// ErrDraining reports that the server is shutting down and admits no new
// computations (503 Retry-After); in-flight work completes.
var ErrDraining = errors.New("server: draining")

// Limiter is the admission controller: a semaphore bounding concurrent
// computations plus a bounded FIFO-ish wait queue. Model evaluations are
// CPU-bound, so admitting more than the core count just thrashes; beyond
// the queue bound, shedding immediately beats queueing work whose client
// will have timed out by the time it runs (classic load-shedding
// doctrine). Waiters give up when their request deadline expires.
type Limiter struct {
	slots    chan struct{}
	maxQueue int64
	queued   atomic.Int64

	// Optional gauges mirroring the limiter state into the metrics
	// registry (nil-safe, like all telemetry instruments).
	inflightGauge *telemetry.Gauge
	queueGauge    *telemetry.Gauge
}

// NewLimiter returns a limiter admitting maxInflight concurrent holders
// with at most maxQueue waiters. Both must be positive.
func NewLimiter(maxInflight, maxQueue int) *Limiter {
	if maxInflight <= 0 || maxQueue <= 0 {
		panic("server: limiter bounds must be positive")
	}
	return &Limiter{slots: make(chan struct{}, maxInflight), maxQueue: int64(maxQueue)}
}

// Acquire obtains a computation slot, waiting in the bounded queue if
// none is free. It fails fast with ErrQueueFull when the queue is at
// capacity, and with ctx.Err() if the deadline expires while queued.
func (l *Limiter) Acquire(ctx context.Context) error {
	select {
	case l.slots <- struct{}{}:
		l.inflightGauge.Add(1)
		return nil
	default:
	}
	if l.queued.Add(1) > l.maxQueue {
		l.queued.Add(-1)
		return ErrQueueFull
	}
	l.queueGauge.Add(1)
	defer func() {
		l.queued.Add(-1)
		l.queueGauge.Add(-1)
	}()
	select {
	case l.slots <- struct{}{}:
		l.inflightGauge.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot obtained by a successful Acquire.
func (l *Limiter) Release() {
	<-l.slots
	l.inflightGauge.Add(-1)
}
