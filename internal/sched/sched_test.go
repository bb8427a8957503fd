package sched

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
)

// fleet64 is the small-fleet config most tests schedule onto.
func fleet64() Config { return Config{Nodes: 64} }

func simulate(t *testing.T, cfg Config, w Workload) *Report {
	t.Helper()
	o, err := Simulate(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return o.Report
}

func TestEmptyAndInvalidWorkloads(t *testing.T) {
	if _, err := Simulate(fleet64(), Workload{}); err == nil {
		t.Fatal("empty workload accepted")
	}
	cases := []JobSpec{
		{N: 0, Ranks: 144},
		{N: 8640, Ranks: 0},
		{N: 8640, Ranks: 144, SubmitS: -1},
		{N: 8640, Ranks: 144, Algorithm: "quantum"},
		{N: 8640, Ranks: 144, Placement: "diagonal"},
		{N: 8640, Ranks: 144, Objective: "max-vibes"},
		{N: 8640, Ranks: 100, Algorithm: "IMe"}, // 100 not divisible by any per-node count
		{N: 8640, Ranks: 48 * 100},              // needs 100 nodes, fleet has 64
	}
	for i, spec := range cases {
		if _, err := Simulate(fleet64(), Workload{Jobs: []JobSpec{spec}}); err == nil {
			t.Errorf("case %d: invalid job %+v accepted", i, spec)
		}
	}
}

// TestFleetSizeBound: a fleet past MaxNodes is refused before the node
// allocator sizes itself for it; MaxNodes itself schedules.
func TestFleetSizeBound(t *testing.T) {
	w := Synthetic(1, 1)
	// Just past the limit, far past it (an int on every word size), and
	// the largest int.
	for _, nodes := range []int{MaxNodes + 1, 1 << 30, math.MaxInt} {
		if _, err := Simulate(Config{Nodes: nodes}, w); err == nil || !strings.Contains(err.Error(), "65536") {
			t.Errorf("nodes=%d: err = %v, want a refusal naming the limit", nodes, err)
		}
	}
	if rep := simulate(t, Config{Nodes: MaxNodes}, w); rep.Nodes != MaxNodes {
		t.Fatalf("report nodes = %d, want %d", rep.Nodes, MaxNodes)
	}
}

func TestSingleJobAccounting(t *testing.T) {
	w := Workload{Jobs: []JobSpec{{Name: "solo", N: 8640, Ranks: 144, SubmitS: 5}}}
	rep := simulate(t, fleet64(), w)
	j := rep.Jobs[0]
	if j.Status != "done" || j.Attempts != 1 || j.Crashes != 0 {
		t.Fatalf("job = %+v", j)
	}
	if j.StartS != 5 || j.WaitS != 0 {
		t.Fatalf("start=%g wait=%g, want immediate start at submit", j.StartS, j.WaitS)
	}
	if j.EndS != j.StartS+j.DurationS {
		t.Fatalf("end=%g, want start+duration=%g", j.EndS, j.StartS+j.DurationS)
	}
	// The charged energy is the predicted energy of the chosen shape.
	if diff := j.EnergyJ - j.AvgPowerW*j.DurationS; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("energy %g != power*duration %g", j.EnergyJ, j.AvgPowerW*j.DurationS)
	}
	if rep.TotalEnergyJ != j.EnergyJ || rep.MakespanS != j.EndS {
		t.Fatalf("report rollup: %+v", rep)
	}
}

// TestMinEnergyPicksCheapestShape pins the placement policy against the
// advisor: the chosen shape's energy must match core.Recommend's best.
func TestMinEnergyPicksCheapestShape(t *testing.T) {
	w := Workload{Jobs: []JobSpec{{N: 17280, Ranks: 576, Objective: "min-energy"}}}
	rep := simulate(t, fleet64(), w)
	j := rep.Jobs[0]

	// Cross-check against the analytic model over every feasible shape.
	prm := perfmodel.Params{Overlap: true}.Normalized()
	bestJ := 0.0
	for _, alg := range perfmodel.Algorithms() {
		for _, pl := range cluster.Placements() {
			m, err := core.RunAnalytic(core.Experiment{Algorithm: alg, N: 17280, Ranks: 576, Placement: pl}, prm)
			if err != nil {
				continue
			}
			if bestJ == 0 || m.TotalJ < bestJ {
				bestJ = m.TotalJ
			}
		}
	}
	if j.EnergyJ != bestJ {
		t.Fatalf("scheduler charged %g J, cheapest feasible shape is %g J", j.EnergyJ, bestJ)
	}
}

// TestFCFSBaselineTakesFastestShape pins the baseline's obliviousness:
// min-time shapes even for jobs asking for min-energy.
func TestFCFSBaselineTakesFastestShape(t *testing.T) {
	w := Workload{Jobs: []JobSpec{{N: 25920, Ranks: 576, Objective: "min-energy"}}}
	aware := simulate(t, Config{Nodes: 64}, w)
	base := simulate(t, Config{Nodes: 64, Policy: FCFSBaseline}, w)
	if base.Jobs[0].DurationS > aware.Jobs[0].DurationS {
		t.Fatalf("baseline picked a slower shape (%g s) than energy-aware (%g s)",
			base.Jobs[0].DurationS, aware.Jobs[0].DurationS)
	}
	if base.Jobs[0].EnergyJ < aware.Jobs[0].EnergyJ {
		t.Fatalf("baseline cheaper (%g J) than min-energy policy (%g J)",
			base.Jobs[0].EnergyJ, aware.Jobs[0].EnergyJ)
	}
	if base.Policy != "fcfs" || aware.Policy != "energy-aware" {
		t.Fatalf("policies = %q/%q", base.Policy, aware.Policy)
	}
}

// TestPowerBudgetNeverExceeded asserts the acceptance-criteria
// invariant: the instantaneous power series stays under the budget, and
// a binding budget actually delays work.
func TestPowerBudgetNeverExceeded(t *testing.T) {
	w := Synthetic(11, 60)
	free := simulate(t, Config{Nodes: 64}, w)
	budget := free.PeakPowerW * 0.5
	rep := simulate(t, Config{Nodes: 64, PowerBudgetW: budget}, w)
	if rep.PeakPowerW > budget {
		t.Fatalf("peak %g W exceeds budget %g W", rep.PeakPowerW, budget)
	}
	for _, p := range rep.PowerSeries {
		if p.PowerW > budget {
			t.Fatalf("power series point %+v exceeds budget %g W", p, budget)
		}
	}
	if rep.MakespanS <= free.MakespanS {
		t.Fatalf("halved budget did not stretch the makespan (%g vs %g)", rep.MakespanS, free.MakespanS)
	}
	if rep.MeanWaitS <= free.MeanWaitS {
		t.Fatalf("halved budget did not grow queue waits (%g vs %g)", rep.MeanWaitS, free.MeanWaitS)
	}
	// Total charged energy is budget-independent: same shapes, same
	// solves, only the timing moved.
	if rep.TotalEnergyJ != free.TotalEnergyJ {
		t.Fatalf("budget changed charged energy: %g vs %g", rep.TotalEnergyJ, free.TotalEnergyJ)
	}
	if rep.StrandedWh <= 0 {
		t.Fatal("binding budget reported no stranded power")
	}
}

// TestEASYBackfillRunsShortJobAhead builds the classic backfill shape:
// a wide job blocks the queue head while a short narrow job fits in the
// hole and cannot delay the head.
func TestEASYBackfillRunsShortJobAhead(t *testing.T) {
	// Fleet of 30: the running 576-rank job (12 nodes) leaves 18 free.
	// Head needs 27 (1296 ranks), so it must wait for the release.
	// The narrow 144-rank job (3 nodes) fits the hole; its duration is
	// far shorter than the wide job's remaining time.
	w := Workload{Jobs: []JobSpec{
		{Name: "running", N: 34560, Ranks: 576, SubmitS: 0},
		{Name: "wide", N: 8640, Ranks: 1296, SubmitS: 1},
		{Name: "narrow", N: 8640, Ranks: 144, SubmitS: 2, Objective: "min-time"},
	}}
	rep := simulate(t, Config{Nodes: 30}, w)
	byName := map[string]JobOutcome{}
	for _, j := range rep.Jobs {
		byName[j.Name] = j
	}
	if byName["wide"].StartS <= 1 {
		t.Fatalf("wide job was not blocked: %+v", byName["wide"])
	}
	if byName["narrow"].StartS != 2 || !byName["narrow"].Backfill {
		t.Fatalf("narrow job did not backfill at submit: %+v", byName["narrow"])
	}
	// EASY guarantee: the backfilled job did not delay the head — the
	// wide job starts exactly when the running job releases its nodes.
	if got, want := byName["wide"].StartS, byName["running"].EndS; got != want {
		t.Fatalf("wide started at %g, reservation was %g", got, want)
	}
	if rep.Backfills == 0 {
		t.Fatal("no backfills counted")
	}
	// The baseline, by contrast, keeps the narrow job behind the wide one.
	base := simulate(t, Config{Nodes: 30, Policy: FCFSBaseline}, w)
	for _, j := range base.Jobs {
		if j.Name == "narrow" && j.StartS < byName["wide"].StartS {
			t.Fatalf("FCFS baseline backfilled: %+v", j)
		}
	}
}

// TestPriorityOrdersQueue: a high-priority job submitted later jumps the
// queue (but never a running job).
func TestPriorityOrdersQueue(t *testing.T) {
	// Fleet of 12 nodes: each 576-rank job takes all of them, so jobs
	// serialize and the queue order is the start order.
	w := Workload{Jobs: []JobSpec{
		{Name: "first", N: 43200, Ranks: 576, SubmitS: 0},
		{Name: "low", N: 8640, Ranks: 576, SubmitS: 1, Priority: 0},
		{Name: "high", N: 8640, Ranks: 576, SubmitS: 2, Priority: 5},
	}}
	rep := simulate(t, Config{Nodes: 12}, w)
	byName := map[string]JobOutcome{}
	for _, j := range rep.Jobs {
		byName[j.Name] = j
	}
	if !(byName["high"].StartS < byName["low"].StartS) {
		t.Fatalf("priority ignored: high starts %g, low starts %g",
			byName["high"].StartS, byName["low"].StartS)
	}
}

// TestFaultPlaneRequeuesAndCharges: a tight MTBF crashes attempts; the
// scheduler requeues them and charges the wasted energy.
func TestFaultPlaneRequeuesAndCharges(t *testing.T) {
	w := Workload{Jobs: []JobSpec{
		{Name: "crashy", N: 34560, Ranks: 144, SubmitS: 0}, // ~25 s solve
	}}
	rep := simulate(t, Config{Nodes: 64, MTBF: 10, FaultSeed: 42}, w)
	j := rep.Jobs[0]
	if j.Crashes == 0 {
		t.Fatalf("MTBF 10s over a ~25s solve produced no crashes: %+v", j)
	}
	if j.Status != "done" {
		t.Fatalf("job did not eventually finish: %+v", j)
	}
	if j.Attempts != j.Crashes+1 {
		t.Fatalf("attempts %d != crashes %d + 1", j.Attempts, j.Crashes)
	}
	if j.WastedJ <= 0 {
		t.Fatal("crashed attempts charged no energy")
	}
	want := j.AvgPowerW*j.DurationS + j.WastedJ
	if diff := j.EnergyJ - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("energy %g != clean solve + waste %g", j.EnergyJ, want)
	}
	if j.EndS <= j.StartS+j.DurationS {
		t.Fatal("crashes did not stretch the completion time")
	}
	if rep.Crashes != j.Crashes || rep.Requeues != j.Crashes || rep.WastedEnergyJ != j.WastedJ {
		t.Fatalf("report rollup: crashes=%d requeues=%d wasted=%g", rep.Crashes, rep.Requeues, rep.WastedEnergyJ)
	}
	// Fault-free control: same workload, no MTBF — cheaper and faster.
	clean := simulate(t, Config{Nodes: 64}, w)
	if clean.TotalEnergyJ >= rep.TotalEnergyJ {
		t.Fatal("faults did not cost energy")
	}
}

// TestTenantAccountingSumsToTotal checks the per-tenant roll-up.
func TestTenantAccountingSumsToTotal(t *testing.T) {
	rep := simulate(t, fleet64(), Synthetic(3, 30))
	var sumJ float64
	var jobs int
	for _, tu := range rep.Tenants {
		sumJ += tu.EnergyJ
		jobs += tu.Jobs
		if tu.NodeSeconds <= 0 {
			t.Fatalf("tenant %s has no node-seconds", tu.Tenant)
		}
	}
	if jobs != len(rep.Jobs) {
		t.Fatalf("tenant job counts sum to %d, want %d", jobs, len(rep.Jobs))
	}
	if diff := sumJ - rep.TotalEnergyJ; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("tenant energy %g != total %g", sumJ, rep.TotalEnergyJ)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{EnergyAware, FCFSBaseline} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: %v %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("random"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestSyntheticIsDeterministicAndValid(t *testing.T) {
	a, b := Synthetic(9, 25), Synthetic(9, 25)
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs: %+v vs %+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
	prev := 0.0
	for _, j := range a.Jobs {
		if j.SubmitS < prev {
			t.Fatal("arrivals not monotone")
		}
		prev = j.SubmitS
	}
	if c := Synthetic(10, 25); c.Jobs[0] == a.Jobs[0] && c.Jobs[1] == a.Jobs[1] {
		t.Fatal("different seeds produced the same trace")
	}
}

func TestParseWorkload(t *testing.T) {
	good := `{"seed": 3, "jobs": [{"name":"a","n":8640,"ranks":144}]}`
	w, err := ParseWorkload(strings.NewReader(good))
	if err != nil || w.Seed != 3 || len(w.Jobs) != 1 {
		t.Fatalf("parse: %v %+v", err, w)
	}
	if _, err := ParseWorkload(strings.NewReader(`{"jobs": [], "extra": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}
