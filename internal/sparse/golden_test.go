package sparse

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/mpi"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/solve_golden.txt from the current solver")

// TestSolveGolden pins every simulated bit of a charged distributed
// solve: an FNV-1a digest over Float64bits of the solution, the
// iteration count, the bits of the residual and the world's clock,
// message and byte totals. A host-performance change to the solver's
// matrix path must leave the file untouched.
func TestSolveGolden(t *testing.T) {
	specs := []Spec{
		{Kind: Banded, N: 4096, Band: 64, Cond: 100, Seed: 20230612},
		{Kind: Random, N: 1500, Density: 0.02, Cond: 60, Seed: 7},
	}
	var b strings.Builder
	for _, spec := range specs {
		for _, alg := range Algorithms() {
			for _, ranks := range []int{1, 3, 8} {
				w, err := mpi.NewWorld(ranks, mpi.Options{})
				if err != nil {
					t.Fatal(err)
				}
				var sol Solution
				err = w.Run(func(p *mpi.Proc) error {
					s, err := Solve(p, alg, spec, Options{ChargeCosts: true})
					if p.Rank() == 0 {
						sol = s
					}
					return err
				})
				if err != nil {
					t.Fatalf("%s %s ranks=%d: %v", alg, spec.Label(), ranks, err)
				}
				h := fnv.New64a()
				var buf [8]byte
				for _, v := range sol.X {
					bits := math.Float64bits(v)
					for k := range buf {
						buf[k] = byte(bits >> (8 * k))
					}
					h.Write(buf[:])
				}
				msgs, bytes := w.Traffic()
				fmt.Fprintf(&b, "%s %s ranks=%d x=%016x iters=%d residual=%016x clock=%016x msgs=%d bytes=%d\n",
					alg, spec.Label(), ranks, h.Sum64(), sol.Iters,
					math.Float64bits(sol.Residual), math.Float64bits(w.MaxClock()), msgs, bytes)
			}
		}
	}
	const path = "testdata/solve_golden.txt"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d golden lines, computed %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], wantLines[i])
		}
	}
}
