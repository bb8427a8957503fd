package ime

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/mat"
	"repro/internal/mpi"
)

// faultAt is a solver-level fault schedule wiping ranks right before
// elimination level.
func faultAt(level int, ranks ...int) *fault.Schedule {
	return &fault.Schedule{Events: []fault.Event{{Level: level, Ranks: ranks}}}
}

func TestWeightPowers(t *testing.T) {
	if weight(0, 0) != 1 || weight(4, 0) != 1 {
		t.Fatal("set-0 weights must all be 1")
	}
	if weight(2, 1) != 3 || weight(2, 2) != 9 || weight(3, 3) != 64 {
		t.Fatal("weights are (r+1)^j")
	}
}

func TestSolveVandermonde(t *testing.T) {
	// Two unknown vectors with ranks {1, 3} → weights per set: {1,1},{2,4}.
	x0 := []float64{1, 2}
	x1 := []float64{-3, 5}
	rhs := [][]float64{
		{x0[0] + x1[0], x0[1] + x1[1]},         // set 0: 1·x0 + 1·x1
		{2*x0[0] + 4*x1[0], 2*x0[1] + 4*x1[1]}, // set 1: 2·x0 + 4·x1
	}
	got, err := solveVandermonde([]int{1, 3}, rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x0 {
		if math.Abs(got[0][i]-x0[i]) > 1e-12 || math.Abs(got[1][i]-x1[i]) > 1e-12 {
			t.Fatalf("recovered %v / %v, want %v / %v", got[0], got[1], x0, x1)
		}
	}
}

func TestSolveVandermondeSingular(t *testing.T) {
	// Duplicate ranks give identical columns → singular.
	if _, err := solveVandermonde([]int{2, 2}, [][]float64{{1}, {2}}); err == nil {
		t.Fatal("singular recovery system accepted")
	}
}

// runParallelFT executes SolveParallel with fault options.
func runParallelFT(t *testing.T, sys *mat.System, ranks int, opts ParallelOptions) []float64 {
	t.Helper()
	w, err := mpi.NewWorld(ranks, mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var x []float64
	err = w.Run(func(p *mpi.Proc) error {
		sol, err := SolveParallel(p, p.World(), sys, opts)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			mu.Lock()
			x = sol
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestMultiFaultRecovery(t *testing.T) {
	for _, tc := range []struct {
		n, ranks, sets, level int
		faults                []int
	}{
		{30, 5, 2, 15, []int{1, 3}},    // two simultaneous faults
		{36, 6, 3, 20, []int{2, 4, 5}}, // three simultaneous faults
		{28, 4, 2, 28, []int{1, 2}},    // faults before the first level
		{28, 4, 2, 1, []int{2, 3}},     // faults before the last level
		{33, 5, 3, 11, []int{4}},       // more sets than faults
	} {
		sys := mat.NewRandomSystem(tc.n, int64(tc.n*3+tc.level))
		want, err := SolveSequential(sys)
		if err != nil {
			t.Fatal(err)
		}
		got := runParallelFT(t, sys, tc.ranks, ParallelOptions{
			Checksum:       true,
			ChecksumSets:   tc.sets,
			InjectSchedule: faultAt(tc.level, tc.faults...),
		})
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-5*(1+math.Abs(want[i])) {
				t.Fatalf("%+v: x[%d] = %g, want %g", tc, i, got[i], want[i])
			}
		}
		if rr := mat.RelativeResidual(sys.A, got, sys.B); rr > 1e-8 {
			t.Fatalf("%+v: residual after multi-fault recovery %g", tc, rr)
		}
	}
}

func TestMultiFaultValidation(t *testing.T) {
	sys := mat.NewRandomSystem(24, 2)
	cases := []struct {
		name string
		opts ParallelOptions
	}{
		{"too many faults for sets", ParallelOptions{
			Checksum: true, ChecksumSets: 1,
			InjectSchedule: faultAt(10, 1, 2),
		}},
		{"duplicate fault rank", ParallelOptions{
			Checksum: true, ChecksumSets: 2,
			InjectSchedule: faultAt(10, 2, 2),
		}},
		{"master fault", ParallelOptions{
			Checksum: true, ChecksumSets: 2,
			InjectSchedule: faultAt(10, 0, 1),
		}},
		{"rank out of range", ParallelOptions{
			Checksum: true, ChecksumSets: 2,
			InjectSchedule: faultAt(10, 1, 9),
		}},
		{"fault without checksums", ParallelOptions{
			InjectSchedule: faultAt(10, 1),
		}},
	}
	for _, tc := range cases {
		w, err := mpi.NewWorld(4, mpi.Options{})
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(p *mpi.Proc) error {
			_, err := SolveParallel(p, p.World(), sys, tc.opts)
			if err == nil {
				return errFmt(tc.name + ": accepted")
			}
			return nil
		})
		if err != nil && !strings.Contains(err.Error(), "rank") {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

func TestChecksumSetsSolveUnaffected(t *testing.T) {
	// Extra checksum sets must not perturb the solution at all.
	sys := mat.NewRandomSystem(30, 8)
	plain := runParallelFT(t, sys, 5, ParallelOptions{})
	multi := runParallelFT(t, sys, 5, ParallelOptions{Checksum: true, ChecksumSets: 3})
	for i := range plain {
		if plain[i] != multi[i] {
			t.Fatalf("checksum sets perturbed x[%d]: %g != %g", i, multi[i], plain[i])
		}
	}
}
