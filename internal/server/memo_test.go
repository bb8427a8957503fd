package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestCache* cover the memo's stored bodies (LRU, overwrite,
// instruments), TestCoalescer* its flights (one computation shared,
// deadlines, errors, panics), and TestMemo* what holds only because both
// are one table per key.

func TestCacheLRUEviction(t *testing.T) {
	m := newMemo(2)
	m.Put("a", []byte("A"))
	m.Put("b", []byte("B"))
	if _, ok := m.Get("a"); !ok { // refresh a: b becomes the LRU victim
		t.Fatal("a missing")
	}
	m.Put("c", []byte("C"))
	if _, ok := m.Get("b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	if _, ok := m.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := m.Get("c"); !ok {
		t.Fatal("c should be resident")
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}
}

func TestCachePutOverwrites(t *testing.T) {
	m := newMemo(4)
	m.Put("k", []byte("old"))
	m.Put("k", []byte("new"))
	if b, _ := m.Get("k"); string(b) != "new" {
		t.Fatalf("got %q, want new", b)
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d, want 1", m.Len())
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	m := newMemo(64)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%100)
				m.Put(k, []byte(k))
				if b, ok := m.Get(k); ok && string(b) != k {
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
	m := newMemo(2)
	m.entriesGauge = reg.Gauge("g", "")
	m.evictedCapacity = reg.Counter("cap", "")

	m.Put("a", []byte("A"))
	m.Put("b", []byte("B"))
	m.Put("c", []byte("C")) // capacity eviction of a
	if got := m.evictedCapacity.Value(); got != 1 {
		t.Fatalf("capacity evictions = %g, want 1", got)
	}
	if got := m.entriesGauge.Value(); got != 2 {
		t.Fatalf("entries gauge = %g, want 2", got)
	}
}

// holdFlight starts a leader for key on m whose fn blocks until the
// returned release is called, and returns once fn is running.
func holdFlight(m *memo, key string, body []byte) (release func()) {
	entered := make(chan struct{})
	unblock := make(chan struct{})
	go m.Do(context.Background(), key, func() ([]byte, error) {
		close(entered)
		<-unblock
		return body, nil
	})
	<-entered
	return func() { close(unblock) }
}

func TestCoalescerSharesOneComputation(t *testing.T) {
	m := newMemo(4)
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
		results[0], shared[0], _ = m.Do(context.Background(), "k", fn)
	}()
	<-entered
	var parked atomic.Int64
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parked.Add(1)
			results[i], shared[i], _ = m.Do(context.Background(), "k", fn)
		}(i)
	}
	// Followers must be parked on the flight before we release the
	// leader; wait until every one has started and give them a chance to
	// block (the select is the only place they can).
	deadline := time.After(2 * time.Second)
	for parked.Load() != followers {
		select {
		case <-deadline:
			t.Fatal("followers never started")
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
		if i > 0 && !shared[i] {
			t.Fatalf("follower %d reported unshared", i)
		}
	}
}

func TestCoalescerFollowerHonoursDeadline(t *testing.T) {
	m := newMemo(4)
	release := holdFlight(m, "k", []byte("late"))
	defer release() // the leader still completes

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, shared, err := m.Do(ctx, "k", func() ([]byte, error) { t.Fatal("follower must not compute"); return nil, nil })
	if shared || !errors.Is(err, context.DeadlineExceeded) {
		// shared must be false: the follower received nothing from the
		// leader, and reporting it as coalesced would double-count it with
		// the deadline shed metrics.
		t.Fatalf("follower: shared=%v err=%v, want unshared deadline error", shared, err)
	}
}

func TestCoalescerErrorPropagates(t *testing.T) {
	m := newMemo(4)
	boom := errors.New("boom")
	_, shared, err := m.Do(context.Background(), "k", func() ([]byte, error) { return nil, boom })
	if shared || !errors.Is(err, boom) {
		t.Fatalf("shared=%v err=%v", shared, err)
	}
	// The key is released after completion: a fresh call recomputes.
	body, shared, err := m.Do(context.Background(), "k", func() ([]byte, error) { return []byte("ok"), nil })
	if shared || err != nil || string(body) != "ok" {
		t.Fatalf("retry: body=%q shared=%v err=%v", body, shared, err)
	}
}

// TestCoalescerPanicReleasesKey: a leader whose computation panics still
// answers its parked followers (with an error, not a wait until their
// deadline), still panics itself, and leaves the key free for the next call.
func TestCoalescerPanicReleasesKey(t *testing.T) {
	m := newMemo(4)
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		m.Do(context.Background(), "k", func() ([]byte, error) {
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
		_, _, err := m.Do(ctx, "k", func() ([]byte, error) {
			t.Error("the follower arrived after the leader finished and computed itself")
			return nil, nil
		})
		followed <- err
	}()
	// Let the follower park on the leader's flight before it panics.
	time.Sleep(50 * time.Millisecond)
	close(release)

	if p := <-leaderPanic; p != "boom" {
		t.Fatalf("leader recovered %v, want its own panic", p)
	}
	if err := <-followed; !errors.Is(err, errComputePanicked) || ctx.Err() != nil {
		t.Fatalf("follower: err=%v ctx=%v, want errComputePanicked before its deadline", err, ctx.Err())
	}
	if m.Len() != 0 {
		t.Fatalf("len = %d after a panic, want nothing stored", m.Len())
	}
	body, shared, err := m.Do(context.Background(), "k", func() ([]byte, error) { return []byte("ok"), nil })
	if shared || err != nil || string(body) != "ok" {
		t.Fatalf("after the panic: body=%q shared=%v err=%v, want a fresh computation", body, shared, err)
	}
}

// TestMemoDoFindsStoredBody is the window a storm hits: a request that
// missed the cache lookup reaches Do after the leader finished. It gets
// the stored body as shared and runs nothing.
func TestMemoDoFindsStoredBody(t *testing.T) {
	m := newMemo(4)
	if _, shared, err := m.Do(context.Background(), "k", func() ([]byte, error) { return []byte("body"), nil }); shared || err != nil {
		t.Fatalf("leader: shared=%v err=%v", shared, err)
	}
	if b, ok := m.Get("k"); !ok || string(b) != "body" {
		t.Fatalf("Get after the flight: %q %v, want the leader's body stored", b, ok)
	}
	body, shared, err := m.Do(context.Background(), "k", func() ([]byte, error) {
		t.Fatal("a stored body must not be computed again")
		return nil, nil
	})
	if !shared || err != nil || string(body) != "body" {
		t.Fatalf("late request: body=%q shared=%v err=%v, want the stored body, shared", body, shared, err)
	}
}

// TestMemoInFlightEntryIsNotResident: a flight is neither a hit, nor
// counted against capacity or by the entries gauge, nor evicted; a Put
// for its key leaves it to the leader.
func TestMemoInFlightEntryIsNotResident(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := newMemo(1)
	m.entriesGauge = reg.Gauge("g", "")
	m.evictedCapacity = reg.Counter("cap", "")

	release := holdFlight(m, "k", []byte("leader"))
	if _, ok := m.Get("k"); ok {
		t.Fatal("a flight must not be a hit")
	}
	m.Put("k", []byte("surrogate"))
	if _, ok := m.Get("k"); ok {
		t.Fatal("Put overwrote a flight")
	}
	m.Put("a", []byte("A"))
	m.Put("b", []byte("B")) // evicts a, not the flight
	if m.Len() != 1 || m.entriesGauge.Value() != 1 || m.evictedCapacity.Value() != 1 {
		t.Fatalf("len=%d gauge=%g evictions=%g, want 1 1 1 with a flight open",
			m.Len(), m.entriesGauge.Value(), m.evictedCapacity.Value())
	}

	release()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Whether the leader is still in flight or has stored its body, the
	// next Do gets the leader's body without computing.
	if b, shared, err := m.Do(ctx, "k", func() ([]byte, error) { t.Fatal("the flight was lost"); return nil, nil }); !shared || err != nil || string(b) != "leader" {
		t.Fatalf("after release: body=%q shared=%v err=%v, want the leader's body", b, shared, err)
	}
	if b, ok := m.Get("k"); !ok || string(b) != "leader" {
		t.Fatalf("after the flight: %q %v, want the leader's body stored", b, ok)
	}
}

// TestMemoFailedComputeStoresNothing: an error is not a body. Nothing is
// stored, the instruments do not move, and the next Do computes again.
func TestMemoFailedComputeStoresNothing(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := newMemo(4)
	m.entriesGauge = reg.Gauge("g", "")
	boom := errors.New("boom")
	if _, _, err := m.Do(context.Background(), "k", func() ([]byte, error) { return []byte("partial"), boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := m.Get("k"); ok || m.Len() != 0 || m.entriesGauge.Value() != 0 {
		t.Fatalf("a failed compute stored something: hit=%v len=%d gauge=%g", ok, m.Len(), m.entriesGauge.Value())
	}
	var computes int
	body, shared, err := m.Do(context.Background(), "k", func() ([]byte, error) { computes++; return []byte("ok"), nil })
	if computes != 1 || shared || err != nil || string(body) != "ok" {
		t.Fatalf("retry: computes=%d body=%q shared=%v err=%v, want one fresh computation", computes, body, shared, err)
	}
}
