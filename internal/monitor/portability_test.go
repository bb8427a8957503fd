package monitor

import (
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ime"
	"repro/internal/mat"
	"repro/internal/mpi"
)

// TestPortabilityAlternateMachine runs the unmodified monitoring pipeline
// on a different node shape (2 × 16-core Broadwell-EP) — the §4
// portability requirement: the framework adapts to the node layout
// through configuration alone.
func TestPortabilityAlternateMachine(t *testing.T) {
	spec := &cluster.MachineSpec{
		Name:           "Broadwell-EP (Intel Xeon E5-2697A v4)",
		TotalNodes:     512,
		SocketsPerNode: 2,
		CoresPerSocket: 16,
	}
	cfg, err := cluster.NewConfig(64, cluster.FullLoad, spec)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 2 || cfg.RanksSocket0 != 16 {
		t.Fatalf("unexpected config %+v", cfg)
	}
	w, err := mpi.NewWorld(64, mpi.Options{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	sys := mat.NewRandomSystem(128, 9)
	var mu sync.Mutex
	monitors := map[int]bool{}
	var reports []NodeReport
	err = w.Run(func(p *mpi.Proc) error {
		s, err := Setup(p, p.World())
		if err != nil {
			return err
		}
		if s.IsMonitor {
			mu.Lock()
			monitors[p.Rank()] = true
			mu.Unlock()
		}
		if err := s.StartMonitoring(); err != nil {
			return err
		}
		x, err := ime.SolveParallel(p, p.World(), sys, ime.ParallelOptions{ChargeCosts: true})
		if err != nil {
			return err
		}
		rep, err := s.StopMonitoring()
		if err != nil {
			return err
		}
		all, err := CollectReports(p, p.World(), rep)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			if rr := mat.RelativeResidual(sys.A, x, sys.B); rr > 1e-10 {
				return errStr("solve failed on alternate machine")
			}
			mu.Lock()
			reports = all
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Monitoring ranks: the highest rank of each 32-rank node.
	if len(monitors) != 2 || !monitors[31] || !monitors[63] {
		t.Fatalf("monitoring ranks = %v, want {31, 63}", monitors)
	}
	if len(reports) != 2 {
		t.Fatalf("%d node reports, want 2", len(reports))
	}
	for _, r := range reports {
		if r.TotalJoules() <= 0 {
			t.Fatalf("node %d measured no energy on the alternate machine", r.Node)
		}
	}
}
