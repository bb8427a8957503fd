package ckpt

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/scalapack"
)

func snap(k0 int) scalapack.PanelSnapshot {
	return scalapack.PanelSnapshot{K0: k0, A: mat.New(2, 2), B: []float64{1, 2}}
}

// latest returns the resume column of the store's newest complete
// generation.
func latest(s *Store) (k0 int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latestCompleteLocked()
}

func TestStoreCompleteGenerationsOnly(t *testing.T) {
	s, err := NewStore(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := latest(s); ok {
		t.Fatal("empty store reports a complete generation")
	}
	// Generation 8: all three ranks → complete.
	for r := 0; r < 3; r++ {
		s.Save(r, snap(8))
	}
	// Generation 16: torn (rank 2 crashed mid-checkpoint).
	s.Save(0, snap(16))
	s.Save(1, snap(16))
	k0, ok := latest(s)
	if !ok || k0 != 8 {
		t.Fatalf("Latest() = (%d, %v), want the complete generation (8, true)", k0, ok)
	}
	if len(s.gens) != 2 || s.gens[8] == nil || s.gens[16] == nil {
		t.Fatalf("stored generations %v, want 8 and 16", s.gens)
	}
	if w, b := s.Stats(); w != 5 || b <= 0 {
		t.Fatalf("Stats() = (%d, %g), want 5 writes of positive volume", w, b)
	}
	// Completing generation 16 moves the restart point forward.
	s.Save(2, snap(16))
	if k0, _ := latest(s); k0 != 16 {
		t.Fatalf("Latest() = %d after completing generation 16", k0)
	}
	got, ok := s.Plan(0, CostModel{}).Resume(1)
	if !ok || got.K0 != 16 {
		t.Fatalf("Resume(1) = (K0=%d, %v), want snapshot of generation 16", got.K0, ok)
	}
}

// TestPlanFixesTheResumeGenerationPerAttempt is the restart deadlock in
// miniature. A crashed attempt leaves generation 16 without rank 2's
// snapshot. In the next attempt rank 2 runs ahead and saves generation 16
// before rank 0's goroutine has started: rank 0 must still resume from
// generation 8, as rank 2 did, or the two wait for each other in
// different panels for ever. Nor may rank 2's save complete generation 16
// with the dead attempt's snapshots.
func TestPlanFixesTheResumeGenerationPerAttempt(t *testing.T) {
	s, err := NewStore(3)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		s.Save(r, snap(8))
	}
	s.Save(0, snap(16))
	s.Save(1, snap(16))

	plan := s.Plan(2, DefaultCostModel())
	early, ok := plan.Resume(2)
	if !ok || early.K0 != 8 {
		t.Fatalf("rank 2 resumes from (K0=%d, %v), want generation 8", early.K0, ok)
	}
	plan.Save(2, snap(16))
	late, ok := plan.Resume(0)
	if !ok || late.K0 != early.K0 {
		t.Fatalf("rank 0 resumes from generation %d, rank 2 of the same world from %d", late.K0, early.K0)
	}
	if k0, _ := latest(s); k0 != 8 {
		t.Fatalf("generation %d counts as complete with snapshots of two attempts", k0)
	}
	// The attempt's own three saves do complete it, for the next attempt.
	plan.Save(0, snap(16))
	plan.Save(1, snap(16))
	if next, ok := s.Plan(2, DefaultCostModel()).Resume(0); !ok || next.K0 != 16 {
		t.Fatalf("the next attempt resumes from (K0=%d, %v), want generation 16", next.K0, ok)
	}
}

func TestCostModel(t *testing.T) {
	m := CostModel{BandwidthBps: 1e9, LatencyS: 1e-3}
	if got, want := m.Seconds(1e9), 1.001; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Seconds(1 GB) = %g, want %g", got, want)
	}
	if got := (CostModel{LatencyS: 5e-4}).Seconds(1e12); got != 5e-4 {
		t.Fatalf("zero bandwidth must charge latency only, got %g", got)
	}
	if _, err := NewStore(0); err == nil {
		t.Fatal("zero-size store accepted")
	}
}

// TestCheckpointRestartReplaysRun drives the whole path end to end: a
// checkpointed Pdgesv run fills the store, a second run resumes from the
// last complete generation and must reproduce the uncheckpointed solution
// exactly, while paying extra virtual time for the snapshot traffic.
func TestCheckpointRestartReplaysRun(t *testing.T) {
	const (
		n     = 48
		ranks = 4
		nb    = 8
	)
	sys := mat.NewRandomSystem(n, 3)
	solve := func(plan *scalapack.CheckpointPlan) ([]float64, float64) {
		w, err := mpi.NewWorld(ranks, mpi.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var x []float64
		err = w.Run(func(p *mpi.Proc) error {
			got, err := scalapack.Pdgesv(p, p.World(), sys, scalapack.ParallelOptions{
				BlockSize:   nb,
				ChargeCosts: true,
				Checkpoint:  plan,
			})
			if err != nil {
				return err
			}
			if p.Rank() == 0 {
				x = got
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return x, w.MaxClock()
	}

	ref, refClock := solve(nil)

	store, err := NewStore(ranks)
	if err != nil {
		t.Fatal(err)
	}
	plan := store.Plan(2, DefaultCostModel())
	first, ckptClock := solve(plan)
	for i := range ref {
		if ref[i] != first[i] {
			t.Fatalf("checkpointing perturbed the solution at %d: %g vs %g", i, first[i], ref[i])
		}
	}
	if ckptClock <= refClock {
		t.Fatalf("checkpoint traffic must cost virtual time: %g vs baseline %g", ckptClock, refClock)
	}
	k0, ok := latest(store)
	if !ok || k0 <= 0 {
		t.Fatalf("no complete generation after a checkpointed run (k0=%d ok=%v)", k0, ok)
	}

	// Restart: resumes mid-factorisation and still lands on the same x.
	restarted, _ := solve(store.Plan(2, DefaultCostModel()))
	for i := range ref {
		if ref[i] != restarted[i] {
			t.Fatalf("restarted run diverged at %d: %g vs %g", i, restarted[i], ref[i])
		}
	}
}

func TestPlanRejectsNothing(t *testing.T) {
	// A store Resume on an unknown rank of a complete generation must
	// report absence, not a zero snapshot a solver would try to restore.
	s, err := NewStore(1)
	if err != nil {
		t.Fatal(err)
	}
	s.Save(0, snap(4))
	if _, ok := s.Plan(0, CostModel{}).Resume(7); ok {
		t.Fatal("Resume invented a snapshot for an unknown rank")
	}
	if _, err := NewStore(-1); err == nil {
		t.Fatal("negative store size accepted")
	}
}
