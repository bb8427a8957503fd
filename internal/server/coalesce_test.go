package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCoalescerSharesOneComputation(t *testing.T) {
	c := NewCoalescer()
	var computes atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	fn := func() ([]byte, error) {
		computes.Add(1)
		close(entered)
		<-release
		return []byte("body"), nil
	}

	const followers = 16
	var wg sync.WaitGroup
	results := make([][]byte, followers+1)
	shared := make([]bool, followers+1)
	wg.Add(1)
	go func() { // leader
		defer wg.Done()
		results[0], shared[0], _ = c.Do(context.Background(), "k", fn)
	}()
	<-entered
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], shared[i], _ = c.Do(context.Background(), "k", fn)
		}(i)
	}
	// Followers must be parked on the call before we release the leader;
	// poll until the key is the only in-flight entry and goroutines had a
	// chance to block (the select is the only place they can be).
	deadline := time.After(2 * time.Second)
	inflight := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.calls)
	}
	for inflight() != 1 {
		select {
		case <-deadline:
			t.Fatal("coalescer never reached one in-flight call")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	if shared[0] {
		t.Fatal("leader reported shared")
	}
	for i := 0; i <= followers; i++ {
		if string(results[i]) != "body" {
			t.Fatalf("caller %d got %q", i, results[i])
		}
	}
}

func TestCoalescerFollowerHonoursDeadline(t *testing.T) {
	c := NewCoalescer()
	release := make(chan struct{})
	entered := make(chan struct{})
	go c.Do(context.Background(), "k", func() ([]byte, error) {
		close(entered)
		<-release
		return []byte("late"), nil
	})
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, shared, err := c.Do(ctx, "k", func() ([]byte, error) { t.Fatal("follower must not compute"); return nil, nil })
	if shared || !errors.Is(err, context.DeadlineExceeded) {
		// shared must be false: the follower received nothing from the
		// leader, and reporting it as coalesced would double-count it with
		// the deadline shed metrics.
		t.Fatalf("follower: shared=%v err=%v, want unshared deadline error", shared, err)
	}
	close(release) // the leader still completes
}

func TestCoalescerErrorPropagates(t *testing.T) {
	c := NewCoalescer()
	boom := errors.New("boom")
	_, shared, err := c.Do(context.Background(), "k", func() ([]byte, error) { return nil, boom })
	if shared || !errors.Is(err, boom) {
		t.Fatalf("shared=%v err=%v", shared, err)
	}
	// The key is released after completion: a fresh call recomputes.
	body, shared, err := c.Do(context.Background(), "k", func() ([]byte, error) { return []byte("ok"), nil })
	if shared || err != nil || string(body) != "ok" {
		t.Fatalf("retry: body=%q shared=%v err=%v", body, shared, err)
	}
}

// TestCoalescerPanicReleasesKey: a leader whose computation panics still
// answers its parked followers (with an error, not a wait until their
// deadline), still panics itself, and leaves the key free for the next call.
func TestCoalescerPanicReleasesKey(t *testing.T) {
	c := NewCoalescer()
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		c.Do(context.Background(), "k", func() ([]byte, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	followed := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", func() ([]byte, error) {
			t.Error("the follower arrived after the leader finished and computed itself")
			return nil, nil
		})
		followed <- err
	}()
	// Let the follower park on the leader's call before it panics.
	time.Sleep(50 * time.Millisecond)
	close(release)

	if p := <-leaderPanic; p != "boom" {
		t.Fatalf("leader recovered %v, want its own panic", p)
	}
	if err := <-followed; err == nil || ctx.Err() != nil {
		t.Fatalf("follower: err=%v ctx=%v, want an error before its deadline", err, ctx.Err())
	}
	body, shared, err := c.Do(context.Background(), "k", func() ([]byte, error) { return []byte("ok"), nil })
	if shared || err != nil || string(body) != "ok" {
		t.Fatalf("after the panic: body=%q shared=%v err=%v, want a fresh computation", body, shared, err)
	}
}
