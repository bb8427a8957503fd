package slurm

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

func newSched(t *testing.T) *Scheduler {
	t.Helper()
	s, err := NewScheduler(cluster.MarconiA3())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSubmitGrantsContiguousNodes(t *testing.T) {
	s := newSched(t)
	alloc, err := s.Submit(JobSpec{Name: "ime", Ranks: 144, Placement: cluster.FullLoad})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Config.Nodes != 3 || len(alloc.Nodes) != 3 {
		t.Fatalf("allocation = %+v", alloc)
	}
	for i, id := range alloc.Nodes {
		if id != i {
			t.Fatalf("nodes %v not the lowest idle block", alloc.Nodes)
		}
	}
	if s.FreeNodes() != 3188-3 {
		t.Fatalf("free nodes = %d", s.FreeNodes())
	}
	if _, ok := s.running[alloc.JobID]; !ok || len(s.running) != 1 {
		t.Fatalf("running = %v, want only job %d", s.running, alloc.JobID)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newSched(t)
	if _, err := s.Submit(JobSpec{Ranks: 100, Placement: cluster.FullLoad}); err == nil {
		t.Error("non-divisible rank count accepted")
	}
	if _, err := s.Submit(JobSpec{Ranks: 48, Placement: cluster.FullLoad, LeakySocketPinning: 2}); err == nil {
		t.Error("leak fraction > 1 accepted")
	}
	if _, err := NewScheduler(nil); err == nil {
		t.Error("nil machine accepted")
	}
}

func TestReleaseRecyclesNodes(t *testing.T) {
	s := newSched(t)
	a, err := s.Submit(JobSpec{Ranks: 576, Placement: cluster.FullLoad})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(a.JobID); err != nil {
		t.Fatal(err)
	}
	if s.FreeNodes() != 3188 {
		t.Fatalf("free nodes after release = %d", s.FreeNodes())
	}
	if err := s.Release(a.JobID); err == nil {
		t.Fatal("double release accepted")
	}
	// The freed nodes are granted again.
	b, err := s.Submit(JobSpec{Ranks: 576, Placement: cluster.FullLoad})
	if err != nil {
		t.Fatal(err)
	}
	if b.Nodes[0] != 0 {
		t.Fatalf("recycled allocation starts at node %d", b.Nodes[0])
	}
}

func TestMachineExhaustion(t *testing.T) {
	small := &cluster.MachineSpec{
		Name: "tiny", TotalNodes: 4, SocketsPerNode: 2, CoresPerSocket: 24,
		MemPerNodeGB: 192, ClockGHz: 2.1,
	}
	s, err := NewScheduler(small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Ranks: 3 * 48, Placement: cluster.FullLoad}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Ranks: 2 * 48, Placement: cluster.FullLoad}); err == nil {
		t.Fatal("oversubscription accepted")
	}
	// One more node still fits.
	if _, err := s.Submit(JobSpec{Ranks: 48, Placement: cluster.FullLoad}); err != nil {
		t.Fatal(err)
	}
}

// TestLeakySocketPinning reproduces the §5.3 anomaly: a one-socket
// directive with leaky enforcement shows ranks on the "idle" socket.
func TestLeakySocketPinning(t *testing.T) {
	s := newSched(t)
	clean, err := s.Submit(JobSpec{Ranks: 144, Placement: cluster.HalfLoadOneSocket})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Config.RanksSocket1 != 0 {
		t.Fatal("clean pinning leaked")
	}
	leaky, err := s.Submit(JobSpec{
		Ranks: 144, Placement: cluster.HalfLoadOneSocket, LeakySocketPinning: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaky.Config.RanksSocket1 != 6 || leaky.Config.RanksSocket0 != 18 {
		t.Fatalf("leaky split = %d/%d, want 18/6",
			leaky.Config.RanksSocket0, leaky.Config.RanksSocket1)
	}
	// Total ranks per node unchanged.
	if leaky.Config.RanksSocket0+leaky.Config.RanksSocket1 != 24 {
		t.Fatal("leak changed the rank count")
	}
	// Balanced placements have nothing to leak.
	two, err := s.Submit(JobSpec{
		Ranks: 144, Placement: cluster.HalfLoadTwoSockets, LeakySocketPinning: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if two.Config.RanksSocket0 != 12 || two.Config.RanksSocket1 != 12 {
		t.Fatal("balanced placement perturbed")
	}
}

func TestLeakConservesRanksQuick(t *testing.T) {
	s := newSched(t)
	f := func(frac uint8) bool {
		leak := float64(frac%101) / 100
		a, err := s.Submit(JobSpec{
			Ranks: 144, Placement: cluster.HalfLoadOneSocket, LeakySocketPinning: leak,
		})
		if err != nil {
			return false
		}
		defer func() {
			if err := s.Release(a.JobID); err != nil {
				panic(err)
			}
		}()
		return a.Config.RanksSocket0+a.Config.RanksSocket1 == 24 &&
			a.Config.RanksSocket0 >= 0 && a.Config.RanksSocket1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyLeakTable pins the edge cases of the leak arithmetic: the
// fraction is truncated via int() (never rounded up), the leak is
// clamped to the directed socket's population, and balanced directives
// are a documented no-op.
func TestApplyLeakTable(t *testing.T) {
	cases := []struct {
		name         string
		s0, s1, leak int
		want0, want1 int
	}{
		{"zero leak no-op", 24, 0, 0, 24, 0},
		{"negative leak no-op", 24, 0, -3, 24, 0},
		{"one-socket leaks down", 24, 0, 6, 18, 6},
		{"socket-1 directive leaks up", 0, 24, 6, 6, 18},
		{"leak exactly empties the socket", 24, 0, 24, 0, 24},
		{"leak beyond ranks clamps", 24, 0, 1000, 0, 24},
		{"leak beyond ranks clamps (socket 1)", 0, 12, 13, 12, 0},
		{"balanced directive is a no-op", 12, 12, 6, 12, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cluster.Config{RanksSocket0: tc.s0, RanksSocket1: tc.s1}
			got := applyLeak(cfg, tc.leak)
			if got.RanksSocket0 != tc.want0 || got.RanksSocket1 != tc.want1 {
				t.Fatalf("applyLeak(%d/%d, %d) = %d/%d, want %d/%d",
					tc.s0, tc.s1, tc.leak, got.RanksSocket0, got.RanksSocket1, tc.want0, tc.want1)
			}
		})
	}
}

// TestLeakFractionTruncates pins that the per-node leak count comes from
// int() truncation of fraction*RanksPerNode, not rounding: 0.99 of a
// 24-rank node leaks 23 ranks, not 24.
func TestLeakFractionTruncates(t *testing.T) {
	s := newSched(t)
	a, err := s.Submit(JobSpec{
		Ranks: 144, Placement: cluster.HalfLoadOneSocket, LeakySocketPinning: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Config.RanksSocket0 != 1 || a.Config.RanksSocket1 != 23 {
		t.Fatalf("0.99 leak split = %d/%d, want 1/23", a.Config.RanksSocket0, a.Config.RanksSocket1)
	}
}

// TestConcurrentSubmitRelease drives the scheduler from many goroutines
// (the fleet event loop's access pattern) and checks pool conservation.
// Run with -race: it is in the CI race lane.
func TestConcurrentSubmitRelease(t *testing.T) {
	s := newSched(t)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a, err := s.Submit(JobSpec{Ranks: 576, Placement: cluster.FullLoad})
				if err != nil {
					continue // pool momentarily exhausted by peers
				}
				if len(a.Nodes) != 12 {
					panic("wrong grant size")
				}
				_ = s.FreeNodes()
				if err := s.Release(a.JobID); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	if s.FreeNodes() != 3188 {
		t.Fatalf("free nodes after churn = %d, want 3188", s.FreeNodes())
	}
	if len(s.running) != 0 {
		t.Fatalf("running after churn = %v", s.running)
	}
}

// TestNodeSetGrantsStayDisjointAndOrdered churns allocations of varying
// sizes and checks every grant is the lowest idle block with no node
// granted twice.
func TestNodeSetGrantsStayDisjointAndOrdered(t *testing.T) {
	small := &cluster.MachineSpec{
		Name: "tiny", TotalNodes: 130, SocketsPerNode: 2, CoresPerSocket: 24,
		MemPerNodeGB: 192, ClockGHz: 2.1,
	}
	s, err := NewScheduler(small)
	if err != nil {
		t.Fatal(err)
	}
	busy := make(map[int]int) // node -> job
	var jobs []int
	for round := 0; round < 50; round++ {
		ranks := []int{48, 144, 576}[round%3]
		a, err := s.Submit(JobSpec{Ranks: ranks, Placement: cluster.FullLoad})
		if err != nil {
			// Exhausted: release the oldest half and keep going.
			for _, id := range jobs[:len(jobs)/2] {
				if err := s.Release(id); err != nil {
					t.Fatal(err)
				}
			}
			for n, j := range busy {
				for _, id := range jobs[:len(jobs)/2] {
					if j == id {
						delete(busy, n)
					}
				}
			}
			jobs = jobs[len(jobs)/2:]
			continue
		}
		for i := 1; i < len(a.Nodes); i++ {
			if a.Nodes[i] <= a.Nodes[i-1] {
				t.Fatalf("grant %v not ascending", a.Nodes)
			}
		}
		for _, n := range a.Nodes {
			if other, ok := busy[n]; ok {
				t.Fatalf("node %d granted to jobs %d and %d", n, other, a.JobID)
			}
			busy[n] = a.JobID
		}
		jobs = append(jobs, a.JobID)
	}
}

// BenchmarkSlurmSubmitRelease measures the fleet allocator at scale: one
// submit + release of a 12-node job on a 4096-node machine that is kept
// half busy (the fleet simulator's steady state). The bitmap free-set
// makes each op O(nodes granted).
func BenchmarkSlurmSubmitRelease(b *testing.B) {
	machine := &cluster.MachineSpec{
		Name: "fleet-4096", TotalNodes: 4096, SocketsPerNode: 2,
		CoresPerSocket: 24, MemPerNodeGB: 192, ClockGHz: 2.1,
	}
	s, err := NewScheduler(machine)
	if err != nil {
		b.Fatal(err)
	}
	spec := JobSpec{Ranks: 576, Placement: cluster.FullLoad} // 12 nodes
	for s.FreeNodes() > machine.TotalNodes/2 {
		if _, err := s.Submit(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := s.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Release(a.JobID); err != nil {
			b.Fatal(err)
		}
	}
}
