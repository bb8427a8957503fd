package cluster

import (
	"testing"
	"testing/quick"
)

func TestMarconiA3Spec(t *testing.T) {
	s := MarconiA3()
	if s.CoresPerNode() != 48 {
		t.Fatalf("cores per node = %d, want 48", s.CoresPerNode())
	}
	if s.TotalNodes != 3188 || s.CoresPerSocket != 24 {
		t.Fatal("Marconi A3 spec drifted from the paper")
	}
}

// TestTable1MatchesPaper pins every cell of the paper's Table 1.
func TestTable1MatchesPaper(t *testing.T) {
	want := []struct {
		ranks, nodes, rpn, sockets, s0, s1 int
	}{
		{144, 3, 48, 2, 24, 24},
		{144, 6, 24, 1, 24, 0},
		{144, 6, 24, 2, 12, 12},
		{576, 12, 48, 2, 24, 24},
		{576, 24, 24, 1, 24, 0},
		{576, 24, 24, 2, 12, 12},
		{1296, 27, 48, 2, 24, 24},
		{1296, 54, 24, 1, 24, 0},
		{1296, 54, 24, 2, 12, 12},
	}
	got, err := Table1(MarconiA3())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("table has %d rows, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Ranks != w.ranks || g.Nodes != w.nodes || g.RanksPerNode != w.rpn ||
			g.SocketsUsed != w.sockets || g.RanksSocket0 != w.s0 || g.RanksSocket1 != w.s1 {
			t.Errorf("row %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestNewConfigErrors(t *testing.T) {
	spec := MarconiA3()
	if _, err := NewConfig(0, FullLoad, spec); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := NewConfig(100, FullLoad, spec); err == nil {
		t.Error("non-divisible rank count accepted (100 % 48 != 0)")
	}
	if _, err := NewConfig(48, Placement(99), spec); err == nil {
		t.Error("unknown placement accepted")
	}
	if _, err := NewConfig(48, FullLoad, nil); err == nil {
		t.Error("nil spec accepted")
	}
	huge := 48 * (spec.TotalNodes + 1)
	if _, err := NewConfig(huge, FullLoad, spec); err == nil {
		t.Error("oversubscribed machine accepted")
	}
}

func TestRankLocationBlockPlacement(t *testing.T) {
	spec := MarconiA3()
	cfg, err := NewConfig(144, FullLoad, spec)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		rank         int
		node, socket int
	}{
		{0, 0, 0},
		{23, 0, 0},
		{24, 0, 1},
		{47, 0, 1},
		{48, 1, 0},
		{143, 2, 1},
	}
	for _, c := range cases {
		loc, err := cfg.RankLocation(c.rank)
		if err != nil {
			t.Fatal(err)
		}
		if loc.Node != c.node || loc.Socket != c.socket {
			t.Errorf("rank %d → %+v, want node %d socket %d", c.rank, loc, c.node, c.socket)
		}
	}
	if _, err := cfg.RankLocation(144); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := cfg.RankLocation(-1); err == nil {
		t.Error("negative rank accepted")
	}
}

func TestRankLocationHalfLoadLayouts(t *testing.T) {
	spec := MarconiA3()

	one, err := NewConfig(144, HalfLoadOneSocket, spec)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 144; r++ {
		loc, err := one.RankLocation(r)
		if err != nil {
			t.Fatal(err)
		}
		if loc.Socket != 0 {
			t.Fatalf("one-socket placement put rank %d on socket %d", r, loc.Socket)
		}
	}

	two, err := NewConfig(144, HalfLoadTwoSockets, spec)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for r := 0; r < 24; r++ { // one node's worth
		loc, err := two.RankLocation(r)
		if err != nil {
			t.Fatal(err)
		}
		counts[loc.Socket]++
	}
	if counts[0] != 12 || counts[1] != 12 {
		t.Fatalf("two-socket split = %v, want 12+12", counts)
	}
}

// TestRankLocationBijection checks, for random valid configs, that the
// ranks of every (node, socket) pair are as many as the socket's active
// cores: a rank per core, and no core of the placement left empty.
func TestRankLocationBijection(t *testing.T) {
	spec := MarconiA3()
	f := func(nodesSeed uint8, pIdx uint8) bool {
		p := Placements()[int(pIdx)%3]
		nodes := int(nodesSeed)%20 + 1
		rpn := spec.CoresPerNode()
		if p != FullLoad {
			rpn = spec.CoresPerSocket
		}
		cfg, err := NewConfig(nodes*rpn, p, spec)
		if err != nil {
			return false
		}
		ranks := map[Location]int{}
		for r := 0; r < cfg.Ranks; r++ {
			loc, err := cfg.RankLocation(r)
			if err != nil || loc.Node != r/cfg.RanksPerNode {
				return false
			}
			ranks[loc]++
		}
		for loc, n := range ranks {
			if n != cfg.ActiveCores(loc.Socket) {
				return false
			}
		}
		return len(ranks) == nodes*cfg.SocketsUsed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestActiveCores(t *testing.T) {
	spec := MarconiA3()
	cfg, _ := NewConfig(576, HalfLoadOneSocket, spec)
	if cfg.ActiveCores(0) != 24 || cfg.ActiveCores(1) != 0 {
		t.Fatalf("one-socket active cores = %d/%d", cfg.ActiveCores(0), cfg.ActiveCores(1))
	}
	if cfg.ActiveCores(7) != 0 {
		t.Fatal("nonexistent socket should have zero cores")
	}
}

func TestPlacementString(t *testing.T) {
	if FullLoad.String() != "full-load" || Placement(42).String() == "" {
		t.Fatal("Placement.String misbehaves")
	}
}

func TestLabel(t *testing.T) {
	cfg, _ := NewConfig(144, FullLoad, MarconiA3())
	if cfg.Label() != "144r/3n/48rpn/2s" {
		t.Fatalf("Label = %q", cfg.Label())
	}
}

func TestPaperConstants(t *testing.T) {
	for _, r := range PaperRankCounts() {
		// IMe requires square rank counts (§5.1).
		root := 0
		for root*root < r {
			root++
		}
		if root*root != r {
			t.Errorf("rank count %d is not a perfect square", r)
		}
	}
	dims := PaperMatrixDims()
	if len(dims) != 4 || dims[0] != 8640 || dims[3] != 34560 {
		t.Fatal("paper matrix dims drifted")
	}
}
