package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/ime"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/rapl"
	"repro/internal/report"
	"repro/internal/slurm"
)

// SweepKey identifies one cell of the evaluation grid.
type SweepKey struct {
	Algorithm perfmodel.Algorithm
	N         int
	Ranks     int
	Placement cluster.Placement
}

// Experiment returns the analytic experiment of the cell.
func (k SweepKey) Experiment() Experiment {
	return Experiment{Algorithm: k.Algorithm, N: k.N, Ranks: k.Ranks, Placement: k.Placement}
}

// String renders the cell's coordinates for error messages.
func (k SweepKey) String() string {
	return fmt.Sprintf("%v/%d/%d/%v", k.Algorithm, k.N, k.Ranks, k.Placement)
}

// Sweep holds the full evaluation grid: every matrix dimension × rank
// count × placement × algorithm of §5.1, modelled analytically.
type Sweep struct {
	Params       perfmodel.Params
	Measurements map[SweepKey]Measurement
}

// SweepKeys enumerates the grid cells in canonical order.
func SweepKeys() []SweepKey {
	var keys []SweepKey
	for _, n := range cluster.PaperMatrixDims() {
		for _, ranks := range cluster.PaperRankCounts() {
			for _, pl := range cluster.Placements() {
				for _, alg := range perfmodel.Algorithms() {
					keys = append(keys, SweepKey{alg, n, ranks, pl})
				}
			}
		}
	}
	return keys
}

// SweepCells is the analytic cell set of the keys under prm: over
// SweepKeys() the full evaluation grid (72 cells) a figure reads, over
// any other key list a grid off it. Collect builds the Sweep.
func SweepCells(keys []SweepKey, prm perfmodel.Params) CellSet[*Sweep] {
	return gridCells(keys,
		func(k SweepKey) AnalyticCell { return AnalyticCell{k.Experiment(), prm} },
		func(ms map[SweepKey]Measurement) *Sweep { return &Sweep{Params: prm, Measurements: ms} })
}

// MonitoredReferences is the exact-engine reference set: the
// observability reference cell under both monitored phases, and one
// full-load node per solver at the largest order the monitored engine
// covers in reasonable time. Its cells run one at a time: each spins up a
// full simulated world, and the process-global kernel pool is not meant
// to be shared by concurrent worlds. Collect renders them as a table.
func MonitoredReferences() CellSet[*report.Table] {
	refs := []Experiment{
		{Algorithm: perfmodel.IMe, N: 96, Ranks: 24, Placement: cluster.HalfLoadTwoSockets, Seed: 1, Phase: PhaseGeneral},
		{Algorithm: perfmodel.IMe, N: 96, Ranks: 24, Placement: cluster.HalfLoadTwoSockets, Seed: 1, Phase: PhaseCompute},
		{Algorithm: perfmodel.IMe, N: 384, Ranks: 48, Placement: cluster.FullLoad, Seed: 7, BlockSize: 16},
		{Algorithm: perfmodel.ScaLAPACK, N: 384, Ranks: 48, Placement: cluster.FullLoad, Seed: 7, BlockSize: 16},
	}
	return CellSet[*report.Table]{n: len(refs), eval: func(ev *Evaluator, _ bool) (*report.Table, error) {
		t := &report.Table{
			Title: "Monitored references: exact engine under the monitoring framework",
			Headers: []string{"alg", "n", "ranks", "placement", "phase",
				"duration s", "total J", "residual"},
		}
		for _, e := range refs {
			key := fmt.Sprintf("monitored %v/%d/%d/%v/%v", e.Algorithm, e.N, e.Ranks, e.Placement, e.Phase)
			m, err := evaluate(ev, key, MonitoredCell(e))
			if err != nil {
				return nil, err
			}
			t.Add(e.Algorithm.String(), e.N, e.Ranks, e.Placement.String(), e.Phase.String(),
				m.DurationS, m.TotalJ, m.Residual)
		}
		return t, nil
	}}
}

// Get returns one cell, failing loudly on a missing key.
func (s *Sweep) Get(alg perfmodel.Algorithm, n, ranks int, pl cluster.Placement) (Measurement, error) {
	m, ok := s.Measurements[SweepKey{alg, n, ranks, pl}]
	if !ok {
		return Measurement{}, fmt.Errorf("core: sweep has no cell %v/%d/%d/%v", alg, n, ranks, pl)
	}
	return m, nil
}

// mustGet is Get for internal table builders over a complete sweep.
func (s *Sweep) mustGet(alg perfmodel.Algorithm, n, ranks int, pl cluster.Placement) Measurement {
	m, err := s.Get(alg, n, ranks, pl)
	if err != nil {
		panic(err)
	}
	return m
}

// Table1 renders the paper's Table 1 (test configurations).
func Table1() (*report.Table, error) {
	rows, err := cluster.Table1(cluster.MarconiA3())
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Table 1: test configurations for nodes, ranks and sockets",
		Headers: []string{"Ranks", "Nodes", "Ranks/Node", "Sockets", "Ranks socket0", "Ranks socket1"},
	}
	for _, c := range rows {
		t.Add(c.Ranks, c.Nodes, c.RanksPerNode, c.SocketsUsed, c.RanksSocket0, c.RanksSocket1)
	}
	return t, nil
}

// Figure3 renders the full- vs half-loaded-processor energy comparison.
func (s *Sweep) Figure3() *report.Table {
	t := &report.Table{
		Title: "Figure 3: energy [J], full-loaded vs half-loaded processors",
		Headers: []string{"alg", "n", "ranks",
			"full-load J", "half-1-socket J", "half-2-sockets J"},
	}
	for _, alg := range perfmodel.Algorithms() {
		for _, n := range cluster.PaperMatrixDims() {
			for _, ranks := range cluster.PaperRankCounts() {
				t.Add(alg.String(), n, ranks,
					s.mustGet(alg, n, ranks, cluster.FullLoad).TotalJ,
					s.mustGet(alg, n, ranks, cluster.HalfLoadOneSocket).TotalJ,
					s.mustGet(alg, n, ranks, cluster.HalfLoadTwoSockets).TotalJ)
			}
		}
	}
	return t
}

// Figure4 renders energy and duration against the matrix dimension at
// fixed rank counts (full-load deployments on 3/12/27 nodes).
func (s *Sweep) Figure4() *report.Table {
	t := &report.Table{
		Title: "Figure 4: energy and duration vs matrix dimension at fixed ranks (48 cores/node)",
		Headers: []string{"ranks", "n",
			"IMe J", "ScaLAPACK J", "IMe s", "ScaLAPACK s"},
	}
	for _, ranks := range cluster.PaperRankCounts() {
		for _, n := range cluster.PaperMatrixDims() {
			ime := s.mustGet(perfmodel.IMe, n, ranks, cluster.FullLoad)
			ge := s.mustGet(perfmodel.ScaLAPACK, n, ranks, cluster.FullLoad)
			t.Add(ranks, n, ime.TotalJ, ge.TotalJ, ime.DurationS, ge.DurationS)
		}
	}
	return t
}

// Figure5 renders energy and duration against the rank count at fixed
// matrix dimensions — the strong-scaling view with the IMe/ScaLAPACK
// crossover.
func (s *Sweep) Figure5() *report.Table {
	t := &report.Table{
		Title: "Figure 5: energy and duration vs ranks at fixed matrix dimension",
		Headers: []string{"n", "ranks",
			"IMe J", "ScaLAPACK J", "IMe s", "ScaLAPACK s", "faster"},
	}
	for _, n := range cluster.PaperMatrixDims() {
		for _, ranks := range cluster.PaperRankCounts() {
			ime := s.mustGet(perfmodel.IMe, n, ranks, cluster.FullLoad)
			ge := s.mustGet(perfmodel.ScaLAPACK, n, ranks, cluster.FullLoad)
			faster := "ScaLAPACK"
			if ime.DurationS < ge.DurationS {
				faster = "IMe"
			}
			t.Add(n, ranks, ime.TotalJ, ge.TotalJ, ime.DurationS, ge.DurationS, faster)
		}
	}
	return t
}

// Figure6 renders energy and average power against the matrix dimension
// at fixed rank counts; power stays nearly flat and IMe draws 12–18% more.
func (s *Sweep) Figure6() *report.Table {
	t := &report.Table{
		Title: "Figure 6: energy and power vs matrix dimension at fixed ranks",
		Headers: []string{"ranks", "n",
			"IMe J", "ScaLAPACK J", "IMe W", "ScaLAPACK W", "power gap %"},
	}
	for _, ranks := range cluster.PaperRankCounts() {
		for _, n := range cluster.PaperMatrixDims() {
			ime := s.mustGet(perfmodel.IMe, n, ranks, cluster.FullLoad)
			ge := s.mustGet(perfmodel.ScaLAPACK, n, ranks, cluster.FullLoad)
			gap := 100 * (ime.AvgPowerW()/ge.AvgPowerW() - 1)
			t.Add(ranks, n, ime.TotalJ, ge.TotalJ, ime.AvgPowerW(), ge.AvgPowerW(), gap)
		}
	}
	return t
}

// Figure7 renders energy and average power against the rank count at
// fixed matrix dimensions; power follows the deployed ranks.
func (s *Sweep) Figure7() *report.Table {
	t := &report.Table{
		Title: "Figure 7: energy and power vs ranks at fixed matrix dimension",
		Headers: []string{"n", "ranks",
			"IMe J", "ScaLAPACK J", "IMe W", "ScaLAPACK W"},
	}
	for _, n := range cluster.PaperMatrixDims() {
		for _, ranks := range cluster.PaperRankCounts() {
			ime := s.mustGet(perfmodel.IMe, n, ranks, cluster.FullLoad)
			ge := s.mustGet(perfmodel.ScaLAPACK, n, ranks, cluster.FullLoad)
			t.Add(n, ranks, ime.TotalJ, ge.TotalJ, ime.AvgPowerW(), ge.AvgPowerW())
		}
	}
	return t
}

// SocketBreakdown renders §5.3's per-package observations for the
// half-load placements at one rank count.
func (s *Sweep) SocketBreakdown(n, ranks int) (*report.Table, error) {
	t := &report.Table{
		Title: fmt.Sprintf("Section 5.3: per-socket energy breakdown, n=%d ranks=%d [J]", n, ranks),
		Headers: []string{"alg", "placement",
			"PKG0 J", "PKG1 J", "DRAM0 J", "DRAM1 J", "pkg1/pkg0"},
	}
	for _, alg := range perfmodel.Algorithms() {
		for _, pl := range cluster.Placements() {
			m, err := s.Get(alg, n, ranks, pl)
			if err != nil {
				return nil, err
			}
			p0 := m.EnergyJ[rapl.PKG0]
			p1 := m.EnergyJ[rapl.PKG1]
			t.Add(alg.String(), pl.String(), p0, p1,
				m.EnergyJ[rapl.DRAM0], m.EnergyJ[rapl.DRAM1], p1/p0)
		}
	}
	return t, nil
}

// DurationBreakdown renders each full-load cell's critical path split into
// compute and exposed communication — the mechanism behind the Fig. 5
// crossover: ScaLAPACK's exposed share is its per-column pivoting chain,
// IMe's shrinks with overlap.
func DurationBreakdown(prm perfmodel.Params) (*report.Table, error) {
	t := &report.Table{
		Title: "Duration breakdown: compute vs exposed communication (full load)",
		Headers: []string{"n", "ranks",
			"IMe comp s", "IMe comm s", "IMe comm %",
			"GE comp s", "GE comm s", "GE comm %"},
	}
	for _, n := range cluster.PaperMatrixDims() {
		for _, ranks := range cluster.PaperRankCounts() {
			cfg, err := cluster.NewConfig(ranks, cluster.FullLoad, cluster.MarconiA3())
			if err != nil {
				return nil, err
			}
			im, err := perfmodel.Run(perfmodel.IMe, n, cfg, prm)
			if err != nil {
				return nil, err
			}
			ge, err := perfmodel.Run(perfmodel.ScaLAPACK, n, cfg, prm)
			if err != nil {
				return nil, err
			}
			t.Add(n, ranks,
				im.ComputeS, im.ExposedCommS, 100*im.ExposedCommS/im.DurationS,
				ge.ComputeS, ge.ExposedCommS, 100*ge.ExposedCommS/ge.DurationS)
		}
	}
	return t, nil
}

// SlurmLeakStudy quantifies §5.3's hypothesis that the anomalous socket-1
// energy in one-socket deployments came from imperfect Slurm socket
// pinning: it models the one-socket placement under increasing pinning
// leak fractions and reports the per-package energy split. Leak 0 shows
// what idle+OS power alone explains; larger leaks show what escaped ranks
// would add.
func SlurmLeakStudy(alg perfmodel.Algorithm, n, ranks int, leaks []float64, prm perfmodel.Params) (*report.Table, error) {
	t := &report.Table{
		Title: fmt.Sprintf("Section 5.3: Slurm socket-pinning leak study, %v n=%d ranks=%d", alg, n, ranks),
		Headers: []string{"leak frac", "ranks s0/s1",
			"PKG0 J", "PKG1 J", "pkg1/pkg0", "total J"},
	}
	sched, err := slurm.NewScheduler(cluster.MarconiA3())
	if err != nil {
		return nil, err
	}
	for _, leak := range leaks {
		alloc, err := sched.Submit(slurm.JobSpec{
			Name:               "leak-study",
			Ranks:              ranks,
			Placement:          cluster.HalfLoadOneSocket,
			LeakySocketPinning: leak,
		})
		if err != nil {
			return nil, err
		}
		res, err := perfmodel.Run(alg, n, alloc.Config, prm)
		if err != nil {
			return nil, err
		}
		p0, p1 := res.EnergyJ[rapl.PKG0], res.EnergyJ[rapl.PKG1]
		t.Add(leak,
			fmt.Sprintf("%d/%d", alloc.Config.RanksSocket0, alloc.Config.RanksSocket1),
			p0, p1, p1/p0, res.TotalJ)
		if err := sched.Release(alloc.JobID); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MessageAccounting renders the §2.1 traffic validation: counted traffic
// from a real distributed IMe run against this implementation's closed
// forms and the paper's published M_IMeP/V_IMeP.
func MessageAccounting(cases [][2]int) (*report.Table, error) {
	t := &report.Table{
		Title: "Section 2.1: IMeP message accounting (counted vs closed forms)",
		Headers: []string{"n", "ranks", "msgs counted", "msgs closed-form",
			"volume counted", "volume closed-form", "paper M_IMeP", "paper V_IMeP"},
	}
	for _, c := range cases {
		n, ranks := c[0], c[1]
		sys := mat.CachedSystem(n, int64(n))
		w, err := mpi.NewWorld(ranks, mpi.Options{})
		if err != nil {
			return nil, err
		}
		if err := w.Run(func(p *mpi.Proc) error {
			_, err := ime.SolveParallel(p, p.World(), sys, ime.ParallelOptions{})
			return err
		}); err != nil {
			return nil, err
		}
		msgs, vol := w.Traffic()
		t.Add(n, ranks, msgs, ime.ExpectedMessages(n, ranks),
			vol, ime.ExpectedVolume(n, ranks),
			ime.PaperMessageCount(n, ranks), ime.PaperMessageVolume(n, ranks))
	}
	return t, nil
}
