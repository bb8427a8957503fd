package sparse

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/rapl"
)

func accelConfig(t *testing.T, ranks int) cluster.Config {
	t.Helper()
	cfg, err := cluster.NewConfig(ranks, cluster.FullLoad, cluster.MarconiA3Accel())
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestModelDeterministic(t *testing.T) {
	cfg := accelConfig(t, 144)
	spec := Spec{Kind: Banded, N: 131072, Band: 256, Cond: 1e4, Seed: 7}
	a, err := Model(CG, spec, cfg, cluster.DeviceAccel, perfmodel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Model(CG, spec, cfg, cluster.DeviceAccel, perfmodel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("model rerun differs:\n%+v\n%+v", a, b)
	}
}

func TestModelEnergyDomains(t *testing.T) {
	cfg := accelConfig(t, 144)
	spec := Spec{Kind: Banded, N: 131072, Band: 256, Cond: 1e4, Seed: 7}
	cpu, err := Model(CG, spec, cfg, cluster.DeviceCPU, perfmodel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if cpu.EnergyJ[rapl.Accel] != 0 {
		t.Fatal("CPU run charged the accelerator domain")
	}
	acc, err := Model(CG, spec, cfg, cluster.DeviceAccel, perfmodel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if acc.EnergyJ[rapl.Accel] <= 0 {
		t.Fatal("accelerated run did not charge the accelerator domain")
	}
	for _, m := range []ModelResult{cpu, acc} {
		var sum float64
		for _, dom := range append(rapl.Domains(), rapl.Accel) {
			sum += m.EnergyJ[dom]
		}
		if m.EnergyJ.Pkg() <= 0 || m.EnergyJ.Dram() <= 0 {
			t.Fatalf("charged domains %v, want the four RAPL domains (and the accelerator)", m.EnergyJ)
		}
		if m.TotalJ != sum {
			t.Fatalf("TotalJ %g != domain sum %g", m.TotalJ, sum)
		}
		if m.DurationS <= 0 || m.Iters < 1 {
			t.Fatalf("degenerate result %+v", m)
		}
	}
}

// TestModelDeviceCrossover pins the advisor's reason to exist: the
// accelerator wins big memory-bound solves, the CPU wins small ones
// where idle accelerator power and transfer latency dominate.
func TestModelDeviceCrossover(t *testing.T) {
	cfg := accelConfig(t, 144)
	big := Spec{Kind: Banded, N: 1048576, Band: 256, Cond: 1e4, Seed: 7}
	small := Spec{Kind: Banded, N: 16384, Band: 256, Cond: 100, Seed: 7}
	for _, alg := range Algorithms() {
		bigCPU, err := Model(alg, big, cfg, cluster.DeviceCPU, perfmodel.Params{})
		if err != nil {
			t.Fatal(err)
		}
		bigAcc, err := Model(alg, big, cfg, cluster.DeviceAccel, perfmodel.Params{})
		if err != nil {
			t.Fatal(err)
		}
		if bigAcc.TotalJ >= bigCPU.TotalJ || bigAcc.DurationS >= bigCPU.DurationS {
			t.Fatalf("%s n=%d: accel J=%.0f t=%.2f vs cpu J=%.0f t=%.2f — accelerator should win",
				alg, big.N, bigAcc.TotalJ, bigAcc.DurationS, bigCPU.TotalJ, bigCPU.DurationS)
		}
		smallCPU, err := Model(alg, small, cfg, cluster.DeviceCPU, perfmodel.Params{})
		if err != nil {
			t.Fatal(err)
		}
		smallAcc, err := Model(alg, small, cfg, cluster.DeviceAccel, perfmodel.Params{})
		if err != nil {
			t.Fatal(err)
		}
		if smallAcc.TotalJ <= smallCPU.TotalJ {
			t.Fatalf("%s n=%d: accel J=%.0f vs cpu J=%.0f — CPU should win min-energy",
				alg, small.N, smallAcc.TotalJ, smallCPU.TotalJ)
		}
	}
}

func TestModelRejects(t *testing.T) {
	cfgCPU, err := cluster.NewConfig(144, cluster.FullLoad, cluster.MarconiA3())
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: Banded, N: 131072, Band: 256, Cond: 1e4, Seed: 7}
	if _, err := Model(CG, spec, cfgCPU, cluster.DeviceAccel, perfmodel.Params{}); err == nil {
		t.Fatal("accelerated model accepted a machine without accelerators")
	}
	if _, err := Model(CG, spec, cfgCPU, cluster.DeviceCPU, perfmodel.Params{PowerCapW: 100}); err == nil {
		t.Fatal("sparse model accepted a power cap")
	}
	tiny := Spec{Kind: Banded, N: 12, Band: 2, Cond: 10, Seed: 1}
	if _, err := Model(CG, tiny, cfgCPU, cluster.DeviceCPU, perfmodel.Params{}); err == nil {
		t.Fatal("model accepted more ranks than rows")
	}
}

func TestEstItersBounds(t *testing.T) {
	if it := EstIters(CG, 100, 1000000); it < 10 || it > 1000 {
		t.Fatalf("CG κ=100 iters = %d, implausible", it)
	}
	if it := EstIters(CG, 1e12, 50); it != 50 {
		t.Fatalf("iteration clamp to n failed: %d", it)
	}
	if EstIters(BiCGSTAB, 100, 1000000) >= EstIters(CG, 100, 1000000) {
		t.Fatal("BiCGSTAB sweep count should sit below CG's for equal κ")
	}
}
