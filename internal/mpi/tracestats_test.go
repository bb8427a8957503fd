package mpi

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestAnalyzeSpansSynthetic(t *testing.T) {
	// Rank 0: compute 1s, send (0.1s); rank 1: wait 1.2s, recv (0.1s),
	// compute 2s. Critical path = compute0 + send + recv + compute1 = 3.2s
	// (the wait is traversed free). Makespan = 3.4s (rank 1 ends at
	// 1.2+0.1+2 = 3.3s... use explicit numbers).
	spans := []Span{
		{Rank: 0, Kind: "compute", Start: 0, End: 1, Peer: -1, Tag: -1},
		{Rank: 0, Kind: "send", Start: 1, End: 1.1, Peer: 1, Tag: 9},
		{Rank: 1, Kind: "wait", Start: 0, End: 1.2, Peer: -1, Tag: -1},
		{Rank: 1, Kind: "recv", Start: 1.2, End: 1.3, Peer: 0, Tag: 9},
		{Rank: 1, Kind: "compute", Start: 1.3, End: 3.3, Peer: -1, Tag: -1},
		// Wrapper spans must not be double-counted.
		{Rank: 1, Kind: "collective", Name: "bcast", Start: 0, End: 1.3, Peer: -1, Tag: -1},
		{Rank: 0, Kind: "phase", Name: "panel", Start: 0, End: 1.1, Peer: -1, Tag: -1},
	}
	st, err := AnalyzeSpans(spans)
	if err != nil {
		t.Fatal(err)
	}
	if st.Makespan != 3.3 {
		t.Fatalf("makespan %g, want 3.3", st.Makespan)
	}
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if !approx(st.Ranks[0].ComputeS, 1) || !approx(st.Ranks[0].CommS, 0.1) || !approx(st.Ranks[0].WaitS, 0) {
		t.Fatalf("rank 0 breakdown %+v", st.Ranks[0])
	}
	if !approx(st.Ranks[1].ComputeS, 2) || !approx(st.Ranks[1].CommS, 0.1) || !approx(st.Ranks[1].WaitS, 1.2) {
		t.Fatalf("rank 1 breakdown %+v", st.Ranks[1])
	}
	if !approx(st.Ranks[1].IdleS, 0) || !approx(st.Ranks[0].IdleS, 3.3-1.1) {
		t.Fatalf("idle %g / %g", st.Ranks[0].IdleS, st.Ranks[1].IdleS)
	}
	if !approx(st.CriticalS, 3.2) {
		t.Fatalf("critical path %g, want 3.2", st.CriticalS)
	}
	if !approx(st.CriticalComputeS, 3) || !approx(st.CriticalCommS, 0.2) {
		t.Fatalf("critical breakdown compute %g comm %g", st.CriticalComputeS, st.CriticalCommS)
	}
	if st.CriticalSpans != 4 || st.CriticalHops != 1 {
		t.Fatalf("critical spans %d hops %d, want 4 and 1", st.CriticalSpans, st.CriticalHops)
	}
}

func TestAnalyzeSpansFromWorld(t *testing.T) {
	w := newTestWorld(t, 4)
	w.EnableTracing()
	err := w.Run(func(p *Proc) error {
		c := p.World()
		p.Compute(0.01*float64(p.Rank()+1), 0)
		if _, err := p.AllreduceSum(c, []float64{1}); err != nil {
			return err
		}
		p.Compute(0.02, 0)
		return p.Barrier(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := AnalyzeSpans(w.Spans())
	if err != nil {
		t.Fatal(err)
	}
	makespan := w.MaxClock()
	if math.Abs(st.Makespan-makespan) > 1e-12 {
		t.Fatalf("makespan %g, want %g", st.Makespan, makespan)
	}
	if st.CriticalS <= 0 || st.CriticalS > makespan+1e-12 {
		t.Fatalf("critical path %g outside (0, %g]", st.CriticalS, makespan)
	}
	if len(st.Ranks) != 4 {
		t.Fatalf("%d rank rows, want 4", len(st.Ranks))
	}
	for _, r := range st.Ranks {
		if r.Busy()+r.IdleS > makespan+1e-9 {
			t.Fatalf("rank %d over-attributed: %+v (makespan %g)", r.Rank, r, makespan)
		}
		if r.ComputeS < 0.03-1e-12 {
			t.Fatalf("rank %d compute %g, want ≥ 0.03", r.Rank, r.ComputeS)
		}
	}
	// The slowest pre-allreduce compute chain (rank 3: 0.04s) plus the
	// final 0.02s compute must lie under the critical path.
	if st.CriticalComputeS < 0.06-1e-12 {
		t.Fatalf("critical compute %g, want ≥ 0.06", st.CriticalComputeS)
	}
}

func TestAnalyzeSpansEmpty(t *testing.T) {
	if _, err := AnalyzeSpans(nil); err == nil {
		t.Fatal("empty span list accepted")
	}
	if _, err := AnalyzeSpans([]Span{{Kind: "phase", Start: 0, End: 1}}); err == nil {
		t.Fatal("wrapper-only span list accepted")
	}
}

// FuzzReadChromeTrace feeds arbitrary files through the tracestats path,
// ReadChromeTrace then AnalyzeSpans: neither may panic, and what they
// allocate must stay bounded by the input, however large the rank ids it
// claims. The seeds include a negative tid and a four-billion tid.
func FuzzReadChromeTrace(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "perfetto_golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"traceEvents":[{"ph":"X","cat":"compute","ts":0,"dur":5,"tid":-1}]}`))
	f.Add([]byte(`{"traceEvents":[{"ph":"X","cat":"compute","ts":0,"dur":5,"tid":0},{"ph":"X","cat":"phase","name":"p","ts":0,"dur":5,"tid":4000000000}]}`))
	f.Fuzz(func(t *testing.T, input []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		spans, err := ReadChromeTrace(bytes.NewReader(input))
		var st *TraceStats
		if err == nil {
			st, err = AnalyzeSpans(spans)
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1024*uint64(len(input))+1<<20 {
			t.Fatalf("a %d-byte trace allocated %d bytes", len(input), alloc)
		}
		if err == nil && len(st.Ranks) > len(spans) {
			t.Fatalf("%d rank rows for %d spans", len(st.Ranks), len(spans))
		}
	})
}
