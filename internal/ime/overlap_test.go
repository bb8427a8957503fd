package ime

import (
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/mpi"
)

func TestOverlappedMatchesSynchronousBitwise(t *testing.T) {
	for _, tc := range []struct{ n, ranks int }{
		{12, 2}, {12, 4}, {13, 4}, {30, 5}, {48, 6}, {9, 9}, {20, 1},
	} {
		sys := mat.NewRandomSystem(tc.n, int64(tc.n*31+tc.ranks))
		sync, _ := runParallel(t, sys, tc.ranks, ParallelOptions{})
		over, _ := runParallel(t, sys, tc.ranks, ParallelOptions{Overlap: true})
		for i := range sync {
			if over[i] != sync[i] {
				t.Fatalf("n=%d ranks=%d: x[%d] overlapped %g != synchronous %g",
					tc.n, tc.ranks, i, over[i], sync[i])
			}
		}
	}
}

func TestOverlappedHidesCommunication(t *testing.T) {
	// With cost charging on, the overlapped variant's makespan must be
	// strictly below the synchronous one: the pivot rows travel during
	// the previous level's update and the h broadcast is gone.
	sys := mat.NewRandomSystem(96, 3)
	_, syncW := runParallel(t, sys, 8, ParallelOptions{ChargeCosts: true})
	_, overW := runParallel(t, sys, 8, ParallelOptions{ChargeCosts: true, Overlap: true})
	if overW.MaxClock() >= syncW.MaxClock() {
		t.Fatalf("overlapped %.6fs not below synchronous %.6fs",
			overW.MaxClock(), syncW.MaxClock())
	}
}

func TestOverlappedMessageCount(t *testing.T) {
	for _, tc := range []struct{ n, ranks int }{
		{16, 4}, {21, 5}, {30, 6},
	} {
		sys := mat.NewRandomSystem(tc.n, int64(tc.n))
		_, w := runParallel(t, sys, tc.ranks, ParallelOptions{Overlap: true})
		msgs, _ := w.Traffic()
		if want := ExpectedMessagesOverlapped(tc.n, tc.ranks); msgs != want {
			t.Errorf("n=%d N=%d: %d messages, closed form %d", tc.n, tc.ranks, msgs, want)
		}
		// Fewer messages than the synchronous variant (no h broadcast).
		if msgs >= ExpectedMessages(tc.n, tc.ranks) {
			t.Errorf("n=%d N=%d: overlapped should exchange fewer messages", tc.n, tc.ranks)
		}
	}
	if ExpectedMessagesOverlapped(10, 1) != 0 {
		t.Error("single rank exchanges nothing")
	}
}

func TestOverlappedWithChecksums(t *testing.T) {
	// Checksums are maintained (no faults); solution unaffected.
	sys := mat.NewRandomSystem(24, 12)
	plain, _ := runParallel(t, sys, 4, ParallelOptions{Overlap: true})
	cs, _ := runParallel(t, sys, 4, ParallelOptions{Overlap: true, Checksum: true, ChecksumSets: 2})
	for i := range plain {
		if cs[i] != plain[i] {
			t.Fatalf("checksums perturbed overlapped solve at %d", i)
		}
	}
}

func TestOverlappedRejectsFaultInjection(t *testing.T) {
	sys := mat.NewRandomSystem(12, 1)
	w, err := mpi.NewWorld(3, mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		_, err := SolveParallel(p, p.World(), sys, ParallelOptions{
			Overlap:        true,
			Checksum:       true,
			InjectSchedule: faultAt(6, 1),
		})
		if err == nil || !strings.Contains(err.Error(), "synchronous") {
			return errFmt("overlap+fault combination accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
