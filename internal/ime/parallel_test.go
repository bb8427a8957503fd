package ime

import (
	"math"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/rapl"
)

// runParallel executes SolveParallel on a fresh world and returns rank 0's
// solution and the world for traffic/energy inspection.
func runParallel(t *testing.T, sys *mat.System, ranks int, opts ParallelOptions) ([]float64, *mpi.World) {
	t.Helper()
	w, err := mpi.NewWorld(ranks, mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var x0 []float64
	err = w.Run(func(p *mpi.Proc) error {
		x, err := SolveParallel(p, p.World(), sys, opts)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			mu.Lock()
			x0 = x
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return x0, w
}

func TestParallelMatchesSequentialBitwise(t *testing.T) {
	// Same arithmetic order ⇒ the distributed solve must agree exactly
	// with the sequential table.
	for _, tc := range []struct{ n, ranks int }{
		{12, 2}, {12, 3}, {12, 4}, {13, 4}, {30, 5}, {48, 6}, {9, 9},
	} {
		sys := mat.NewRandomSystem(tc.n, int64(tc.n*100+tc.ranks))
		seq, err := SolveSequential(sys)
		if err != nil {
			t.Fatal(err)
		}
		par, _ := runParallel(t, sys, tc.ranks, ParallelOptions{})
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("n=%d ranks=%d: x[%d] parallel %g != sequential %g",
					tc.n, tc.ranks, i, par[i], seq[i])
			}
		}
	}
}

func TestParallelAllRanksGetSolution(t *testing.T) {
	sys := mat.NewRandomSystem(20, 77)
	w, err := mpi.NewWorld(4, mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sols := make([][]float64, 4)
	err = w.Run(func(p *mpi.Proc) error {
		x, err := SolveParallel(p, p.World(), sys, ParallelOptions{})
		if err != nil {
			return err
		}
		sols[p.Rank()] = x
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 4; r++ {
		for i := range sols[0] {
			if sols[r][i] != sols[0][i] {
				t.Fatalf("rank %d solution differs at %d", r, i)
			}
		}
	}
	if rr := mat.RelativeResidual(sys.A, sols[0], sys.B); rr > 1e-12 {
		t.Fatalf("residual %g", rr)
	}
}

func TestParallelValidation(t *testing.T) {
	sys := mat.NewRandomSystem(3, 1)
	w, err := mpi.NewWorld(5, mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		_, err := SolveParallel(p, p.World(), sys, ParallelOptions{})
		if err == nil {
			return errFmt("more ranks than rows accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

type errFmt string

func (e errFmt) Error() string { return string(e) }

func TestParallelTrafficMatchesClosedForms(t *testing.T) {
	for _, tc := range []struct{ n, ranks int }{
		{12, 3}, {16, 4}, {20, 4}, {21, 5}, {30, 6}, {96, 8},
	} {
		sys := mat.NewRandomSystem(tc.n, int64(tc.n))
		_, w := runParallel(t, sys, tc.ranks, ParallelOptions{})
		msgs, vol := w.Traffic()
		if want := ExpectedMessages(tc.n, tc.ranks); msgs != want {
			t.Errorf("n=%d N=%d: messages = %d, closed form %d", tc.n, tc.ranks, msgs, want)
		}
		if want := ExpectedVolume(tc.n, tc.ranks); vol != want {
			t.Errorf("n=%d N=%d: volume = %d, closed form %d", tc.n, tc.ranks, vol, want)
		}
	}
}

func TestParallelTrafficPaperAsymptotics(t *testing.T) {
	// The paper's M_IMeP counts the last-row entries as element-wise
	// messages; our implementation aggregates them per rank, so the
	// paper's n² message term shows up in our *volume*. Check the shared
	// structural terms: both counts grow as Θ(N·n) for broadcasts and the
	// exchanged volume is Θ(N·n²).
	n, ranks := 60, 6
	sys := mat.NewRandomSystem(n, 9)
	_, w := runParallel(t, sys, ranks, ParallelOptions{})
	_, vol := w.Traffic()
	paperVol := PaperMessageVolume(n, ranks)
	ratio := float64(vol) / paperVol
	if ratio < 0.2 || ratio > 2.5 {
		t.Fatalf("volume %d vs paper closed form %g: ratio %g out of band", vol, paperVol, ratio)
	}
}

func TestParallelChargesVirtualTimeAndEnergy(t *testing.T) {
	sys := mat.NewRandomSystem(24, 4)
	_, w := runParallel(t, sys, 4, ParallelOptions{ChargeCosts: true})
	if w.MaxClock() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	node := w.Nodes()[0]
	if node.ExactEnergy(rapl.PKG0) <= 0 {
		t.Fatal("no package energy charged")
	}
	if node.ExactEnergy(rapl.DRAM0) <= 0 {
		t.Fatal("no DRAM energy charged")
	}
}

func TestParallelActivityFactorRaisesEnergy(t *testing.T) {
	sys := mat.NewRandomSystem(24, 4)
	_, plain := runParallel(t, sys, 4, ParallelOptions{})
	_, charged := runParallel(t, sys, 4, ParallelOptions{ChargeCosts: true})
	// Both worlds run the same communication; the charged run adds compute
	// time at IMe's activity factor, so it must accumulate more energy.
	if charged.Nodes()[0].ExactEnergy(rapl.PKG0) <= plain.Nodes()[0].ExactEnergy(rapl.PKG0) {
		t.Fatal("cost charging did not raise package energy")
	}
}

func TestChecksumSolveUnaffected(t *testing.T) {
	// Checksum maintenance must not change the solution at all.
	sys := mat.NewRandomSystem(24, 11)
	plain, _ := runParallel(t, sys, 4, ParallelOptions{})
	ft, _ := runParallel(t, sys, 4, ParallelOptions{ChecksumSets: 1})
	for i := range plain {
		if plain[i] != ft[i] {
			t.Fatalf("checksum run diverged at %d: %g != %g", i, ft[i], plain[i])
		}
	}
}

func TestFaultRecoveryMidSolve(t *testing.T) {
	for _, tc := range []struct {
		n, ranks, level, fault int
	}{
		{24, 4, 12, 2}, // mid-reduction fault
		{24, 4, 24, 3}, // fault before the first level
		{24, 4, 1, 1},  // fault before the last level
		{21, 5, 10, 4}, // uneven blocks
	} {
		sys := mat.NewRandomSystem(tc.n, int64(tc.n+tc.level))
		want, err := SolveSequential(sys)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := runParallel(t, sys, tc.ranks, ParallelOptions{
			ChecksumSets:   1,
			InjectSchedule: faultAt(tc.level, tc.fault),
		})
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				t.Fatalf("%+v: recovered solution differs at %d: %g vs %g", tc, i, got[i], want[i])
			}
		}
		if rr := mat.RelativeResidual(sys.A, got, sys.B); rr > 1e-9 {
			t.Fatalf("%+v: residual after recovery %g", tc, rr)
		}
	}
}

func TestFaultRecoveryRejectsMaster(t *testing.T) {
	sys := mat.NewRandomSystem(12, 3)
	w, err := mpi.NewWorld(3, mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		_, err := SolveParallel(p, p.World(), sys, ParallelOptions{
			ChecksumSets:   1,
			InjectSchedule: faultAt(6, 0),
		})
		if err == nil {
			return errFmt("master fault accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
