package telemetry

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestConcurrentIncrements hammers one counter, gauge and histogram from
// many goroutines; run under -race this doubles as the data-race test.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_ops_total", "ops")
	g := r.Gauge("t_inflight", "inflight")
	h := r.Histogram("t_latency_seconds", "latency", []float64{0.001, 0.01, 0.1})
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.ObserveWithExemplar(0.005, "")
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), float64(workers*perWorker); got != want {
		t.Fatalf("counter = %g, want %g", got, want)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %g, want 0", g.Value())
	}
	if got, want := h.Count(), uint64(workers*perWorker); got != want {
		t.Fatalf("histogram count = %d, want %d", got, want)
	}
	if got, want := h.Sum(), 0.005*workers*perWorker; math.Abs(got-want) > 1e-6 {
		t.Fatalf("histogram sum = %g, want %g", got, want)
	}
}

// TestHistogramBucketBoundaries pins the `le` (inclusive upper bound)
// semantics, including values exactly on a boundary and beyond the last.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_sizes", "sizes", []float64{1, 2})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3} {
		h.ObserveWithExemplar(v, "")
	}
	want := []uint64{2, 2, 1} // ≤1: {0.5, 1}; ≤2: {1.5, 2}; +Inf: {3}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 5 || h.Sum() != 8 {
		t.Fatalf("count/sum = %d/%g, want 5/8", h.Count(), h.Sum())
	}
	for _, c := range []struct {
		bound  float64
		within uint64
	}{{0.5, 0}, {1, 2}, {2, 4}, {10, 4}} {
		if within, total := h.CountWithin(c.bound); within != c.within || total != 5 {
			t.Fatalf("CountWithin(%g) = %d, %d; want %d, 5", c.bound, within, total, c.within)
		}
	}
}

func TestCounterMonotone(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_total", "t")
	c.Add(2)
	c.Add(-5) // ignored
	c.Add(math.NaN())
	if c.Value() != 2 {
		t.Fatalf("counter = %g, want 2", c.Value())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_h", "", []float64{1})
	c.Inc()
	g.Set(3)
	h.ObserveWithExemplar(1, "")
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must be inert")
	}
}

func TestRegistryReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("t_total", "t", "rank", "3")
	b := r.Counter("t_total", "t", "rank", "3")
	if a != b {
		t.Fatal("same identity returned distinct counters")
	}
	if r.Counter("t_total", "t", "rank", "4") == a {
		t.Fatal("distinct labels shared a counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind collision did not panic")
		}
	}()
	r.Gauge("t_total", "t", "rank", "3")
}

// goldenRegistry builds the fixture shared by the exposition golden tests.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("mpi_messages_total", "point-to-point messages sent").Add(42)
	r.Counter("mpi_wait_seconds_total", "busy-wait seconds", "rank", "0").Add(0.25)
	r.Counter("mpi_wait_seconds_total", "busy-wait seconds", "rank", "1").Add(1.5)
	r.Gauge("kernel_pool_workers", "worker pool size").Set(8)
	h := r.Histogram("ime_level_seconds", "per-level duration", []float64{0.0001, 0.001, 0.01})
	h.ObserveWithExemplar(0.00005, "")
	h.ObserveWithExemplar(0.0005, "")
	h.ObserveWithExemplar(0.5, "")
	r.Counter("rapl_energy_joules_total", "energy by domain",
		"node", "0", "domain", "PACKAGE_ENERGY:PACKAGE0").Add(12.5)
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "registry.prom", buf.Bytes())
}
