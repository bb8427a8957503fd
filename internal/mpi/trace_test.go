package mpi

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testSpec is a tiny machine (2 sockets × 2 cores) so multi-node traces
// stay small: HalfLoadTwoSockets packs 2 ranks per node.
func testSpec(totalNodes int) *cluster.MachineSpec {
	return &cluster.MachineSpec{
		Name:           "test-machine",
		TotalNodes:     totalNodes,
		SocketsPerNode: 2,
		CoresPerSocket: 2,
	}
}

func TestTracingRecordsSpans(t *testing.T) {
	w := newTestWorld(t, 2)
	w.EnableTracing()
	err := w.Run(func(p *Proc) error {
		c := p.World()
		p.Compute(0.5, 0)
		if p.Rank() == 0 {
			return p.Send(c, 1, 7, []float64{1, 2, 3})
		}
		_, err := p.Recv(c, 0, 7)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := w.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	kinds := map[string]int{}
	makespan := w.MaxClock()
	for _, s := range spans {
		kinds[s.Kind]++
		if s.Start < 0 || s.End > makespan+1e-12 || s.End <= s.Start {
			t.Fatalf("span %+v outside [0, %g]", s, makespan)
		}
		if s.Rank < 0 || s.Rank > 1 {
			t.Fatalf("span rank %d", s.Rank)
		}
		switch s.Kind {
		case "send":
			if s.Peer != 1 || s.Tag != 7 || s.Bytes != 3*8 {
				t.Fatalf("send span missing metadata: %+v", s)
			}
		case "recv":
			if s.Peer != 0 || s.Tag != 7 || s.Bytes != 3*8 {
				t.Fatalf("recv span missing metadata: %+v", s)
			}
		}
	}
	for _, want := range []string{"compute", "send", "recv"} {
		if kinds[want] == 0 {
			t.Errorf("no %q spans recorded (%v)", want, kinds)
		}
	}
	// Spans sorted by (rank, start).
	for i := 1; i < len(spans); i++ {
		a, b := spans[i-1], spans[i]
		if a.Rank > b.Rank || (a.Rank == b.Rank && a.Start > b.Start) {
			t.Fatal("spans not sorted")
		}
	}
}

func TestTracingDisabledByDefault(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		p.Compute(0.1, 0)
		ph := p.BeginPhase("noop", -1)
		p.EndPhase(ph)
		p.MarkInstant("nothing")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Spans() != nil {
		t.Fatal("spans recorded without EnableTracing")
	}
	if w.CounterSamples() != nil {
		t.Fatal("counter samples recorded without EnableTracing")
	}
	var buf bytes.Buffer
	if err := w.WriteChromeTrace(&buf); err == nil {
		t.Fatal("chrome trace without tracing accepted")
	}
}

func TestCollectiveAndPhaseSpans(t *testing.T) {
	w := newTestWorld(t, 4)
	w.EnableTracing()
	err := w.Run(func(p *Proc) error {
		c := p.World()
		ph := p.BeginPhase("elimination-level", 3)
		if _, err := p.Bcast(c, 0, []float64{1, 2}); err != nil {
			return err
		}
		p.Compute(0.01, 0)
		p.EndPhase(ph)
		if _, err := p.AllreduceSum(c, []float64{1}); err != nil {
			return err
		}
		return p.Barrier(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	var phase *Span
	for _, s := range w.Spans() {
		s := s
		byName[s.Kind+"/"+s.Name]++
		if s.Kind == "phase" && phase == nil {
			phase = &s
		}
	}
	for _, want := range []string{"collective/bcast", "collective/allreduce", "collective/barrier", "phase/elimination-level"} {
		if byName[want] == 0 {
			t.Errorf("no %q span (have %v)", want, byName)
		}
	}
	if phase == nil || phase.Level != 3 {
		t.Fatalf("phase span missing level: %+v", phase)
	}
	if got := phase.DisplayName(); got != "elimination-level 3" {
		t.Fatalf("DisplayName = %q", got)
	}
}

func TestCounterSamplesRecorded(t *testing.T) {
	cfg, err := cluster.NewConfig(4, cluster.HalfLoadTwoSockets, testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(4, Options{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	w.EnableTracing()
	err = w.Run(func(p *Proc) error {
		for i := 0; i < 5; i++ {
			p.Compute(0.01, 1e6)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	samples := w.CounterSamples()
	perNode := map[int]int{}
	for i, s := range samples {
		perNode[s.Node]++
		if i > 0 && samples[i-1].Node == s.Node {
			if s.Time <= samples[i-1].Time {
				t.Fatalf("samples not time-sorted: %+v after %+v", s, samples[i-1])
			}
			for d := range s.Joules {
				if s.Joules[d] < samples[i-1].Joules[d] {
					t.Fatalf("energy decreased in domain %d: %+v -> %+v", d, samples[i-1], s)
				}
			}
		}
	}
	// 2 nodes, ≥ baseline + final sample each, plus interval samples over
	// the 50 ms of activity.
	for node := 0; node < 2; node++ {
		if perNode[node] < 3 {
			t.Fatalf("node %d has %d samples, want ≥ 3", node, perNode[node])
		}
	}
}

// traceDoc mirrors the exported trace object for assertions.
type traceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTrace(t *testing.T) {
	// Two nodes so the per-node pid split is observable.
	cfg, err := cluster.NewConfig(4, cluster.HalfLoadTwoSockets, testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(4, Options{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	w.EnableTracing()
	err = w.Run(func(p *Proc) error {
		p.Compute(0.01*float64(p.Rank()+1), 1e5)
		return p.Barrier(p.World())
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	var threadNames, spans, counters int
	pids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				threadNames++
			}
		case "X":
			spans++
			pids[e.Pid] = true
			if e.Dur <= 0 {
				t.Fatalf("bad span event %+v", e)
			}
		case "C":
			counters++
			if _, ok := e.Args["W"]; !ok {
				t.Fatalf("counter event without W arg: %+v", e)
			}
		}
	}
	if threadNames != 4 {
		t.Fatalf("thread_name metadata for %d ranks, want 4", threadNames)
	}
	if spans == 0 || counters == 0 {
		t.Fatalf("spans=%d counters=%d, want both > 0", spans, counters)
	}
	// Ranks 0-1 live on node 0, ranks 2-3 on node 1: two process rows.
	if !pids[0] || !pids[1] {
		t.Fatalf("span pids %v, want nodes 0 and 1", pids)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	w := newTestWorld(t, 2)
	w.EnableTracing()
	err := w.Run(func(p *Proc) error {
		c := p.World()
		ph := p.BeginPhase("panel", 2)
		p.Compute(0.02, 0)
		p.EndPhase(ph)
		if p.Rank() == 0 {
			return p.Send(c, 1, 5, make([]float64, 10))
		}
		_, err := p.Recv(c, 0, 5)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := w.Spans()
	if len(got) != len(want) {
		t.Fatalf("round trip produced %d spans, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.Rank != b.Rank || a.Kind != b.Kind || a.Name != b.Name ||
			a.Peer != b.Peer || a.Tag != b.Tag || a.Bytes != b.Bytes || a.Level != b.Level {
			t.Fatalf("span %d mismatch:\nwant %+v\ngot  %+v", i, a, b)
		}
		if diff := a.Start - b.Start; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("span %d start drifted: %g vs %g", i, a.Start, b.Start)
		}
	}
}

// TestPerfettoGolden pins the full Perfetto export of a deterministic
// two-rank scenario so format regressions show up as a diff.
func TestPerfettoGolden(t *testing.T) {
	w := newTestWorld(t, 2)
	w.EnableTracing()
	err := w.Run(func(p *Proc) error {
		c := p.World()
		ph := p.BeginPhase("elimination-level", 1)
		p.Compute(0.002, 1e5)
		var err error
		if p.Rank() == 0 {
			err = p.Send(c, 1, 3, []float64{1, 2, 3, 4})
		} else {
			_, err = p.Recv(c, 0, 3)
		}
		p.EndPhase(ph)
		if err != nil {
			return err
		}
		p.MarkInstant("checkpoint")
		return p.Barrier(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "perfetto_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("perfetto export drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}
