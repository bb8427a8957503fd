package scalapack

import (
	"testing"
	"testing/quick"
)

// globalIndex is the inverse of OwnerAndLocal: the global index of local
// element l on process p.
func globalIndex(l, nb, p, np int) int {
	block := l / nb
	return (block*np+p)*nb + l%nb
}

func TestNewGridShapes(t *testing.T) {
	cases := []struct{ p, pr, pc int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {12, 3, 4},
		{144, 12, 12}, {576, 24, 24}, {1296, 36, 36},
	}
	for _, c := range cases {
		g, err := NewGrid(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if g.Pr != c.pr || g.Pc != c.pc {
			t.Errorf("NewGrid(%d) = %d×%d, want %d×%d", c.p, g.Pr, g.Pc, c.pr, c.pc)
		}
	}
	if _, err := NewGrid(0); err == nil {
		t.Error("zero ranks accepted")
	}
}

func TestGridCoordsRoundTrip(t *testing.T) {
	g, _ := NewGrid(12)
	for r := 0; r < 12; r++ {
		pr, pc, err := g.Coords(r)
		if err != nil {
			t.Fatal(err)
		}
		if g.Rank(pr, pc) != r {
			t.Fatalf("coords round trip broke at %d", r)
		}
	}
	if _, _, err := g.Coords(12); err == nil {
		t.Error("out-of-grid rank accepted")
	}
}

// TestNumrocPartition: the per-process counts must sum to n and agree with
// the owner map.
func TestNumrocPartition(t *testing.T) {
	f := func(nRaw uint16, nbRaw, npRaw uint8) bool {
		n := int(nRaw)%500 + 1
		nb := int(nbRaw)%16 + 1
		np := int(npRaw)%8 + 1
		counts := make([]int, np)
		for g := 0; g < n; g++ {
			owner, local := OwnerAndLocal(g, nb, np)
			if owner < 0 || owner >= np {
				return false
			}
			if globalIndex(local, nb, owner, np) != g {
				return false
			}
			counts[owner]++
		}
		total := 0
		for p := 0; p < np; p++ {
			if counts[p] != Numroc(n, nb, p, np) {
				return false
			}
			total += counts[p]
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNumrocEdgeCases(t *testing.T) {
	if Numroc(0, 4, 0, 2) != 0 {
		t.Error("empty dimension")
	}
	if Numroc(10, 4, 5, 2) != 0 {
		t.Error("invalid process index should own nothing")
	}
	// n=10, nb=4, np=2: blocks [0-3][4-7][8-9] → p0: 4+2=6, p1: 4.
	if Numroc(10, 4, 0, 2) != 6 || Numroc(10, 4, 1, 2) != 4 {
		t.Errorf("Numroc(10,4,·,2) = %d,%d want 6,4", Numroc(10, 4, 0, 2), Numroc(10, 4, 1, 2))
	}
}
