package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestLimiterAdmitsUpToCapacity(t *testing.T) {
	l := NewLimiter(2, 1)
	ctx := context.Background()
	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(l.slots); got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
	l.Release()
	if err := l.Acquire(ctx); err != nil {
		t.Fatalf("slot freed by Release not acquirable: %v", err)
	}
	l.Release()
	l.Release()
}

func TestLimiterQueueFull(t *testing.T) {
	l := NewLimiter(1, 1)
	ctx := context.Background()
	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// One waiter fits the queue.
	waited := make(chan error, 1)
	go func() {
		waited <- l.Acquire(context.Background())
	}()
	deadline := time.After(2 * time.Second)
	for l.queued.Load() != 1 {
		select {
		case <-deadline:
			t.Fatal("waiter never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// The second waiter overflows the bounded queue: immediate shed.
	if err := l.Acquire(ctx); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow acquire: %v, want ErrQueueFull", err)
	}
	l.Release() // hands the slot to the queued waiter
	if err := <-waited; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	l.Release()
}

func TestLimiterQueuedWaiterHonoursDeadline(t *testing.T) {
	l := NewLimiter(1, 4)
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := l.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued acquire: %v, want deadline exceeded", err)
	}
	if got := l.queued.Load(); got != 0 {
		t.Fatalf("queue depth after timeout = %d, want 0", got)
	}
	l.Release()
}
