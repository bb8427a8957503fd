package scalapack

import (
	"math"
	"sync"
	"testing"

	"repro/internal/mat"
)

// TestCheckpointRecordsPivots checks the swap log a snapshot carries: a
// matrix that needs row exchanges, checkpointed after every panel, saves
// one pivot per factorised column with at least one non-identity swap.
// Snapshot.Bytes charges the log, so it is part of checkpoint cost.
func TestCheckpointRecordsPivots(t *testing.T) {
	a, _ := mat.NewFromData(4, 4, []float64{
		0, 2, 0, 1,
		2, 0, 1, 0,
		0, 1, 0, 2,
		1, 0, 2, 0,
	})
	x0 := []float64{3, -1, 2, 5}
	sys := &mat.System{A: a, B: a.MulVec(x0)}
	var mu sync.Mutex
	var snaps []PanelSnapshot
	plan := &CheckpointPlan{Every: 1, Save: func(_ int, s PanelSnapshot) {
		mu.Lock()
		snaps = append(snaps, s)
		mu.Unlock()
	}}
	got, _ := runPdgesv(t, sys, 4, ParallelOptions{BlockSize: 1, Checkpoint: plan})
	for i := range x0 {
		if math.Abs(got[i]-x0[i]) > 1e-10 {
			t.Fatalf("x = %v, want %v", got, x0)
		}
	}
	// Panels end at columns 1, 2 and 3 before the last one; 4 ranks each.
	if len(snaps) != 3*4 {
		t.Fatalf("%d snapshots saved, want 12", len(snaps))
	}
	for _, s := range snaps {
		if len(s.Pivots) != s.K0 {
			t.Fatalf("snapshot at K0=%d holds %d pivots", s.K0, len(s.Pivots))
		}
		moved := false
		for _, pv := range s.Pivots {
			moved = moved || pv[0] != pv[1]
		}
		if !moved {
			t.Fatalf("snapshot at K0=%d records no swap for a pivot-requiring matrix", s.K0)
		}
	}
}
