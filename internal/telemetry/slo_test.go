package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when told to — pins burn-rate math.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testObjectives() []SLO {
	return []SLO{{
		Name:               "recommend",
		LatencyBoundS:      0.005,
		LatencyTarget:      0.99,
		AvailabilityTarget: 0.999,
	}}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// fakeCounts is a count source the tests drive request by request: it
// counts each request against every objective it knows by name, as the
// advisor's latency histogram and 5xx counters do.
type fakeCounts struct {
	mu     sync.Mutex
	bounds map[string]float64
	counts map[string]SLOCounts
}

func newFakeCounts(objectives []SLO) *fakeCounts {
	f := &fakeCounts{bounds: map[string]float64{}, counts: map[string]SLOCounts{}}
	for _, o := range objectives {
		f.bounds[o.Name] = o.LatencyBoundS
	}
	return f
}

// record counts one finished request of the named class.
func (f *fakeCounts) record(name string, latencyS float64, code int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.counts[name]
	c.Total++
	if latencyS > f.bounds[name] {
		c.Slow++
	}
	if code >= 500 {
		c.Bad++
	}
	f.counts[name] = c
}

func (f *fakeCounts) read(o SLO) SLOCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[o.Name]
}

// newTestTracker returns a tracker over a fresh fake source, and a
// function that records one request and ticks the tracker, as a server
// does when a request finishes.
func newTestTracker(clk *fakeClock, snapEvery time.Duration) (*SLOTracker, func(name string, latencyS float64, code int)) {
	src := newFakeCounts(testObjectives())
	tr := NewSLOTracker(testObjectives(), src.read, SLOTrackerOptions{Now: clk.Now, SnapEvery: snapEvery})
	return tr, func(name string, latencyS float64, code int) {
		src.record(name, latencyS, code)
		tr.Tick(clk.Now())
	}
}

func TestSLOTrackerAllGood(t *testing.T) {
	clk := newFakeClock()
	tr, record := newTestTracker(clk, time.Second)
	for i := 0; i < 100; i++ {
		record("recommend", 0.001, 200)
		clk.Advance(100 * time.Millisecond)
	}
	rep := tr.Report()
	if len(rep.Objectives) != 1 {
		t.Fatalf("objectives = %d", len(rep.Objectives))
	}
	o := rep.Objectives[0]
	if o.Requests != 100 || o.Verdict != "ok" || o.LatencyCompliance != 1 || o.Availability != 1 {
		t.Fatalf("status = %+v", o)
	}
	if len(o.Windows) != len(DefaultSLOWindows()) {
		t.Fatalf("windows = %d", len(o.Windows))
	}
	for _, w := range o.Windows {
		if w.LatencyBurn != 0 || w.AvailabilityBurn != 0 {
			t.Fatalf("burn nonzero on clean traffic: %+v", w)
		}
	}
}

func TestSLOTrackerBurnMath(t *testing.T) {
	clk := newFakeClock()
	tr, record := newTestTracker(clk, time.Second)
	// 1000 requests over ~100s: 2% slow (2x the 1% latency budget),
	// 0.2% 5xx (2x the 0.1% availability budget).
	for i := 0; i < 1000; i++ {
		lat, code := 0.001, 200
		if i%50 == 0 { // 20 of 1000 = 2% slow
			lat = 0.05
		}
		if i%500 == 1 { // 2 of 1000 = 0.2% bad
			code = 500
		}
		record("recommend", lat, code)
		clk.Advance(100 * time.Millisecond)
	}
	o := tr.Report().Objectives[0]
	if !approx(o.LatencyCompliance, 0.98) {
		t.Fatalf("latency compliance = %v, want 0.98", o.LatencyCompliance)
	}
	if !approx(o.Availability, 0.998) {
		t.Fatalf("availability = %v, want 0.998", o.Availability)
	}
	// Cumulative compliance is below both targets → breach.
	if o.Verdict != "breach" {
		t.Fatalf("verdict = %q, want breach", o.Verdict)
	}
	// The 5m window covers all 100s of traffic: burn = badFrac/budget = 2.
	w := o.Windows[0]
	if w.Window != "5m" {
		t.Fatalf("first window = %q", w.Window)
	}
	if !approx(w.LatencyBurn, 2.0) {
		t.Fatalf("latency burn = %v, want 2.0", w.LatencyBurn)
	}
	if !approx(w.AvailabilityBurn, 2.0) {
		t.Fatalf("availability burn = %v, want 2.0", w.AvailabilityBurn)
	}
}

// TestSLOTrackerWindowIsolation drives a bad burst, then an hour of clean
// traffic: the short window must recover while the cumulative stats and
// long windows still see the burst.
func TestSLOTrackerWindowIsolation(t *testing.T) {
	clk := newFakeClock()
	tr, record := newTestTracker(clk, time.Second)
	// Burst: 100 requests, all 5xx and slow, over 100s.
	for i := 0; i < 100; i++ {
		record("recommend", 1.0, 500)
		clk.Advance(time.Second)
	}
	// Recovery: 1h of clean traffic, one request per second.
	for i := 0; i < 3600; i++ {
		record("recommend", 0.001, 200)
		clk.Advance(time.Second)
	}
	o := tr.Report().Objectives[0]
	var w5m, w6h *SLOWindowReport
	for i := range o.Windows {
		switch o.Windows[i].Window {
		case "5m":
			w5m = &o.Windows[i]
		case "6h":
			w6h = &o.Windows[i]
		}
	}
	if w5m == nil || w6h == nil {
		t.Fatalf("windows missing: %+v", o.Windows)
	}
	if w5m.AvailabilityBurn != 0 || w5m.LatencyBurn != 0 {
		t.Fatalf("5m window still burning after recovery: %+v", *w5m)
	}
	if w6h.AvailabilityBurn == 0 {
		t.Fatalf("6h window forgot the burst: %+v", *w6h)
	}
	// Cumulative availability 3600/3700 ≈ 0.973 < 0.999 → breach verdict.
	if o.Verdict != "breach" {
		t.Fatalf("verdict = %q, want breach", o.Verdict)
	}
}

func TestSLOTrackerUnknownNameAndNil(t *testing.T) {
	clk := newFakeClock()
	tr, record := newTestTracker(clk, 0)
	record("nope", 1, 500) // no objective of that name: not counted
	if got := tr.Report().Objectives[0].Requests; got != 0 {
		t.Fatalf("unknown name recorded: %d", got)
	}
	var nilT *SLOTracker
	nilT.Tick(clk.Now())
	rep := nilT.Report()
	if rep.Objectives == nil || len(rep.Objectives) != 0 {
		t.Fatalf("nil tracker report = %+v", rep)
	}
}

func TestSLOTrackerConcurrentRecord(t *testing.T) {
	clk := newFakeClock()
	tr, record := newTestTracker(clk, time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				record("recommend", 0.001, 200)
				if i%10 == 0 {
					clk.Advance(time.Millisecond)
					tr.Report()
				}
			}
		}()
	}
	wg.Wait()
	if got := tr.Report().Objectives[0].Requests; got != 4000 {
		t.Fatalf("requests = %d, want 4000", got)
	}
}

func TestBurnEdgeCases(t *testing.T) {
	if burn(0.02, 0.99) != 2.0000000000000004 && !approx(burn(0.02, 0.99), 2) {
		t.Fatalf("burn(0.02, 0.99) = %v", burn(0.02, 0.99))
	}
	if burn(0, 1.0) != 0 {
		t.Fatalf("zero-budget clean burn = %v", burn(0, 1.0))
	}
	if burn(0.001, 1.0) != burnBreach {
		t.Fatalf("zero-budget dirty burn = %v", burn(0.001, 1.0))
	}
}
