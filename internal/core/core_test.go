package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/rapl"
)

func TestRunAnalyticProducesMeasurement(t *testing.T) {
	e := Experiment{
		Algorithm: perfmodel.ScaLAPACK,
		N:         8640,
		Ranks:     144,
		Placement: cluster.FullLoad,
	}
	m, err := RunAnalytic(e, perfmodel.Params{Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Engine != "analytic" {
		t.Fatalf("engine = %q", m.Engine)
	}
	if m.DurationS <= 0 || m.TotalJ <= 0 {
		t.Fatalf("degenerate measurement %+v", m)
	}
	if m.AvgPowerW() <= 0 {
		t.Fatal("power accessor broken")
	}
	if m.Config.Nodes != 3 {
		t.Fatalf("config nodes = %d, want 3", m.Config.Nodes)
	}
}

func TestRunAnalyticValidation(t *testing.T) {
	if _, err := RunAnalytic(Experiment{Algorithm: perfmodel.IMe, N: 0, Ranks: 144,
		Placement: cluster.FullLoad}, perfmodel.Params{}); err == nil {
		t.Error("zero order accepted")
	}
	if _, err := RunAnalytic(Experiment{Algorithm: perfmodel.IMe, N: 100, Ranks: 7,
		Placement: cluster.FullLoad}, perfmodel.Params{}); err == nil {
		t.Error("invalid rank count accepted")
	}
}

func TestRunMonitoredBothAlgorithms(t *testing.T) {
	for _, alg := range perfmodel.Algorithms() {
		e := Experiment{
			Algorithm: alg,
			N:         384,
			Ranks:     48, // one full-load node
			Placement: cluster.FullLoad,
			Seed:      7,
			BlockSize: 16,
		}
		m, err := RunMonitored(e)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if m.Engine != "monitored" {
			t.Fatalf("engine = %q", m.Engine)
		}
		if m.Residual > 1e-10 {
			t.Fatalf("%v: residual %g — solver broken under monitoring", alg, m.Residual)
		}
		if m.DurationS <= 0 {
			t.Fatalf("%v: no duration measured", alg)
		}
		if m.TotalJ <= 0 {
			t.Fatalf("%v: no energy measured", alg)
		}
		for _, d := range rapl.Domains() {
			if m.EnergyJ[d] < 0 {
				t.Fatalf("%v: negative energy in %v", alg, d)
			}
		}
		// Both sockets loaded under full load: PKG1 energy present.
		if m.EnergyJ[rapl.PKG1] <= 0 {
			t.Fatalf("%v: socket 1 shows no energy under full load", alg)
		}
	}
}

func TestRunMonitoredHalfLoadPlacements(t *testing.T) {
	// The monitored engine must honour the socket placements end to end:
	// one-socket jobs show the busy/idle package asymmetry, two-socket
	// jobs stay near-symmetric.
	base := Experiment{
		Algorithm: perfmodel.IMe,
		N:         384,
		Ranks:     24, // one half-load node
		Seed:      11,
	}
	one := base
	one.Placement = cluster.HalfLoadOneSocket
	mOne, err := RunMonitored(one)
	if err != nil {
		t.Fatal(err)
	}
	if mOne.Config.RanksSocket1 != 0 {
		t.Fatalf("one-socket config %+v", mOne.Config)
	}
	p0 := mOne.EnergyJ[rapl.PKG0]
	p1 := mOne.EnergyJ[rapl.PKG1]
	if p1 >= p0 {
		t.Fatalf("idle socket energy %.3f J not below busy %.3f J", p1, p0)
	}
	if frac := p1 / p0; frac < 0.3 || frac > 0.6 {
		t.Fatalf("idle/busy fraction %.2f outside the §5.3 band", frac)
	}
	// DRAM asymmetry too: traffic lands on socket 0 only.
	if mOne.EnergyJ[rapl.DRAM0] <= mOne.EnergyJ[rapl.DRAM1] {
		t.Fatal("DRAM energy should skew to the busy socket")
	}

	two := base
	two.Placement = cluster.HalfLoadTwoSockets
	mTwo, err := RunMonitored(two)
	if err != nil {
		t.Fatal(err)
	}
	q0 := mTwo.EnergyJ[rapl.PKG0]
	q1 := mTwo.EnergyJ[rapl.PKG1]
	if q1 >= q0 {
		t.Fatal("socket 0 should edge out socket 1 (OS noise) at equal load")
	}
	if ratio := q1 / q0; ratio < 0.9 {
		t.Fatalf("two-socket split too asymmetric: %.2f", ratio)
	}
}

func TestRunMonitoredPhases(t *testing.T) {
	base := Experiment{
		Algorithm: perfmodel.IMe,
		N:         384,
		Ranks:     48,
		Placement: cluster.FullLoad,
		Seed:      3,
	}
	general := base
	general.Phase = PhaseGeneral
	compute := base
	compute.Phase = PhaseCompute
	g, err := RunMonitored(general)
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunMonitored(compute)
	if err != nil {
		t.Fatal(err)
	}
	// The general window includes allocation, so it is at least as long
	// and at least as energetic — but not dramatically so (§5.2: "the
	// data … do not exhibit significant differences").
	if g.DurationS < c.DurationS {
		t.Fatalf("general %.4fs shorter than compute %.4fs", g.DurationS, c.DurationS)
	}
	if g.TotalJ < c.TotalJ {
		t.Fatalf("general %.1f J below compute %.1f J", g.TotalJ, c.TotalJ)
	}
	if g.TotalJ > 2*c.TotalJ {
		t.Fatalf("allocation dominates energy (%.1f vs %.1f J); phases should be close", g.TotalJ, c.TotalJ)
	}
	if PhaseGeneral.String() != "general" || PhaseCompute.String() != "compute" {
		t.Fatal("phase names drifted")
	}
}

func TestRunMonitoredValidation(t *testing.T) {
	if _, err := RunMonitored(Experiment{
		Algorithm: perfmodel.IMe, N: 10, Ranks: 48, Placement: cluster.FullLoad,
	}); err == nil {
		t.Error("ranks > order accepted")
	}
	if _, err := RunMonitored(Experiment{
		Algorithm: perfmodel.Algorithm(9), N: 384, Ranks: 48, Placement: cluster.FullLoad,
	}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
