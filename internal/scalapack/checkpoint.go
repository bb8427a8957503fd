package scalapack

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/mpi"
)

// Checkpoint/restart support for Pdgesv — the fault-tolerance technique
// the paper's IMe reference [7] compares against ("more efficient than
// the checkpoint/restart technique usually applied in Gaussian
// Elimination"). ScaLAPACK has no algorithm-level redundancy: when a rank
// dies the job dies, and resilience means periodically snapshotting every
// rank's local factorisation state so a restarted job can resume from the
// last complete snapshot instead of from scratch. The solver only defines
// the hook types and calls them at panel boundaries; storage lives in
// internal/ckpt, and the restart loop in core.RunResilient.

// PanelSnapshot is one rank's factorisation state at a panel boundary:
// everything panelStep mutates. Restoring it and resuming the panel loop
// at K0 replays the original run bit for bit (the solver is deterministic
// in virtual time).
type PanelSnapshot struct {
	// K0 is the first unprocessed panel column: the resume point.
	K0 int
	// A is a deep copy of the rank's local block-cyclic tile of the
	// partially factorised matrix.
	A *mat.Dense
	// B is the rank's replicated right-hand-side segment.
	B []float64
	// Pivots is the swap log up to K0: the ipiv a ScaLAPACK checkpoint
	// carries. Bytes charges 16 B per entry, so it is part of the cost of
	// every checkpoint write and restore.
	Pivots [][2]int
}

// Bytes returns the snapshot's payload size — what a checkpoint write
// moves to stable storage, and what the cost model charges for.
func (s PanelSnapshot) Bytes() float64 {
	var elems int
	if s.A != nil {
		elems += s.A.Rows() * s.A.Cols()
	}
	elems += len(s.B)
	return float64(float64(elems)*mpi.Float64Bytes) + float64(float64(len(s.Pivots))*16)
}

// CheckpointPlan wires periodic checkpointing into Pdgesv. The zero/nil
// plan disables everything; with Every > 0 each rank snapshots its state
// after every Every-th panel step, charging Cost virtual seconds before
// handing the snapshot to Save. Resume, when it yields a snapshot, makes
// the solver skip the already-factorised panels and continue from the
// snapshot instead (charging Cost again for the restore read).
type CheckpointPlan struct {
	// Every is the checkpoint period in panel steps (≤ 0 disables).
	Every int
	// Cost returns the virtual seconds one rank spends writing
	// (restore=false) or reading back (restore=true) a snapshot of the
	// given size. Nil means checkpoints are free.
	Cost func(bytes float64, restore bool) float64
	// Save stores one rank's snapshot (called once per rank per period).
	Save func(rank int, snap PanelSnapshot)
	// Resume returns the snapshot a restarted rank continues from, if any.
	// It must answer every rank of one world from the same generation, no
	// matter when each asks: ranks resuming at different panels never meet.
	Resume func(rank int) (PanelSnapshot, bool)
}

// snapshot deep-copies the mutable solver state, resuming at nextK0.
func (st *pdState) snapshot(nextK0 int) PanelSnapshot {
	return PanelSnapshot{
		K0:     nextK0,
		A:      st.a.Clone(),
		B:      append([]float64(nil), st.b...),
		Pivots: append([][2]int(nil), st.pivots...),
	}
}

// restore overwrites the solver state from a snapshot taken by a run with
// the same layout.
func (st *pdState) restore(snap PanelSnapshot) error {
	if snap.A == nil || snap.A.Rows() != st.a.Rows() || snap.A.Cols() != st.a.Cols() {
		return fmt.Errorf("scalapack: snapshot block shape mismatch")
	}
	if len(snap.B) != len(st.b) {
		return fmt.Errorf("scalapack: snapshot rhs length %d, want %d", len(snap.B), len(st.b))
	}
	if snap.K0 <= 0 || snap.K0 > st.n {
		return fmt.Errorf("scalapack: snapshot resume point %d out of range (0,%d]", snap.K0, st.n)
	}
	for li := 0; li < st.a.Rows(); li++ {
		copy(st.a.Row(li), snap.A.Row(li))
	}
	copy(st.b, snap.B)
	st.pivots = append(st.pivots[:0], snap.Pivots...)
	return nil
}

// chargeCheckpoint charges the virtual cost of one snapshot write or
// restore read: busy seconds plus the snapshot's bytes through the memory
// hierarchy.
func (st *pdState) chargeCheckpoint(plan *CheckpointPlan, bytes float64, restore bool) {
	if plan.Cost == nil {
		return
	}
	if s := plan.Cost(bytes, restore); s > 0 {
		st.p.Compute(s, bytes)
	}
}
