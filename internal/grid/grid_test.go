package grid

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOrdered(t *testing.T) {
	r := New(4)
	got, err := Map(r, 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapBudget(t *testing.T) {
	const workers = 3
	r := New(workers)
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	_, err := Map(r, 64, func(i int) (struct{}, error) {
		n := inFlight.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		defer inFlight.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds budget %d", p, workers)
	}
}

func TestMapError(t *testing.T) {
	r := New(2)
	boom := errors.New("boom")
	var calls atomic.Int64
	_, err := Map(r, 1000, func(i int) (int, error) {
		calls.Add(1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := calls.Load(); n == 1000 {
		t.Error("error did not stop scheduling of remaining cells")
	}
}

func TestMapSharedRunner(t *testing.T) {
	// Two concurrent Maps sharing one Runner must respect the combined cap
	// and both complete (no lost slots).
	const workers = 2
	r := New(workers)
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	cell := func(i int) (int, error) {
		n := inFlight.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		defer inFlight.Add(-1)
		return i, nil
	}
	err := Do(New(2),
		func() error { _, err := Map(r, 50, cell); return err },
		func() error { _, err := Map(r, 50, cell); return err },
	)
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds shared budget %d", p, workers)
	}
}

func TestDo(t *testing.T) {
	r := New(0) // GOMAXPROCS default
	if r.Workers() < 1 {
		t.Fatalf("default budget %d", r.Workers())
	}
	var sum atomic.Int64
	var tasks []func() error
	for i := 1; i <= 10; i++ {
		i := i
		tasks = append(tasks, func() error { sum.Add(int64(i)); return nil })
	}
	if err := Do(r, tasks...); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 55 {
		t.Fatalf("sum = %d, want 55", sum.Load())
	}
	wantErr := fmt.Errorf("task failed")
	if err := Do(r, func() error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
}

// TestMapIsAWorkerLoop: a Map runs its tasks on at most workers
// goroutines however many tasks it has. The tasks count themselves — the
// distinct goroutines that ever ran one, and how many ran at once —
// because runtime.NumGoroutine also counts the test framework's.
func TestMapIsAWorkerLoop(t *testing.T) {
	const workers, tasks = 2, 1000
	var (
		mu       sync.Mutex
		runners  = map[string]bool{}
		inFlight int
		peak     int
	)
	out, err := Map(New(workers), tasks, func(i int) (int, error) {
		id := goroutineID()
		mu.Lock()
		runners[id] = true
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		runtime.Gosched() // let the other worker in
		mu.Lock()
		inFlight--
		mu.Unlock()
		return 3 * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runners) > workers || peak > workers {
		t.Errorf("%d tasks ran on %d goroutines, %d at once; want at most %d of each", tasks, len(runners), peak, workers)
	}
	if len(out) != tasks {
		t.Fatalf("%d results, want %d", len(out), tasks)
	}
	for i, v := range out {
		if v != 3*i {
			t.Fatalf("out[%d] = %d, want %d: results must be index-ordered", i, v, 3*i)
		}
	}
}

// goroutineID returns the calling goroutine's header line field
// ("goroutine 17 [running]:" → "17"), stable for its lifetime.
func goroutineID() string {
	var buf [64]byte
	fields := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return fields[1]
}

// TestMapErrorStopsFurtherIndices: after a task fails no further index
// starts. With one worker that is exact — the indices before the failing
// one, it, and nothing else; with several, tasks already pulled may still
// run, a handful, never the rest of the grid.
func TestMapErrorStopsFurtherIndices(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 8} {
		var mu sync.Mutex
		var started []int
		out, err := Map(New(workers), 1000, func(i int) (int, error) {
			mu.Lock()
			started = append(started, i)
			mu.Unlock()
			if i == 3 {
				return 0, boom
			}
			return i, nil
		})
		if !errors.Is(err, boom) || out != nil {
			t.Fatalf("workers=%d: out=%v err=%v, want nil and %v", workers, out, err, boom)
		}
		if workers == 1 && fmt.Sprint(started) != "[0 1 2 3]" {
			t.Errorf("workers=1: tasks started %v, want exactly [0 1 2 3]", started)
		}
		if len(started) > 500 {
			t.Errorf("workers=%d: %d of 1000 tasks started after index 3 failed", workers, len(started))
		}
	}
}

// TestMapEmptyTakesNoSlot: an empty Map touches nothing — not even a
// runner slot, so it cannot block inside a task of a saturated runner.
func TestMapEmptyTakesNoSlot(t *testing.T) {
	r := New(1)
	out, err := Map(r, 1, func(int) (int, error) {
		inner, err := Map(r, 0, func(int) (int, error) { return 0, errors.New("never runs") })
		return len(inner), err
	})
	if err != nil || len(out) != 1 || out[0] != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

// deepen needs a few KB of stack: 32 frames of a 128-byte array each. It
// stands for what a real cell calls (a JSON decoder, a model's replay); a
// goroutine started per task pays for growing to that depth every time, a
// worker once.
//
//go:noinline
func deepen(depth int, seed byte) byte {
	var frame [128]byte
	for i := range frame {
		frame[i] = seed + byte(i)
	}
	if depth == 0 {
		return frame[seed%128]
	}
	return deepen(depth-1, frame[1]) + frame[0]
}

// BenchmarkMap is one Map of 440 stack-hungry tasks — a campaign replay's
// worth — on a two-worker runner; ns/op ÷ 440 is the per-task overhead
// plus the task.
func BenchmarkMap(b *testing.B) {
	r := New(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Map(r, 440, func(i int) (byte, error) { return deepen(32, byte(i)), nil }); err != nil {
			b.Fatal(err)
		}
	}
}
