// Package core orchestrates the paper's experiments end to end: it binds
// the cluster model, the two solvers, the white-box monitoring framework
// and the analytic engine into Experiment specifications and Measurement
// results — the "testing framework" of §4 that "automatically collects and
// stores results in a human-readable format".
//
// Two engines execute an Experiment:
//
//   - RunMonitored executes the real distributed solver on the simulated
//     cluster under the monitoring framework (exact numerics, counters
//     read through PAPI/RAPL). Feasible for small orders; used by tests,
//     the monitored-references table and the overhead study.
//   - RunAnalytic replays the solver's schedule through internal/perfmodel
//     at paper scale; used by the figures, the claims and the campaign.
package core

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/cluster"
	"repro/internal/ime"
	"repro/internal/mat"
	"repro/internal/monitor"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/rapl"
	"repro/internal/scalapack"
)

// Phase selects what the monitoring window covers (§5.1: the algorithm is
// divided into matrix allocation and execution; the paper monitors both
// the general execution and the computation phase alone).
type Phase int

const (
	// PhaseGeneral monitors allocation + solve + deallocation.
	PhaseGeneral Phase = iota
	// PhaseCompute monitors the solver execution only.
	PhaseCompute
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	if p == PhaseCompute {
		return "compute"
	}
	return "general"
}

// Experiment is one job specification of the evaluation grid.
type Experiment struct {
	Algorithm perfmodel.Algorithm
	N         int
	Ranks     int
	Placement cluster.Placement
	// Seed generates the input system deterministically (the paper loads
	// fixed inputs from file for repeatability).
	Seed int64
	// Phase selects the monitored window (monitored engine only).
	Phase Phase
	// BlockSize is ScaLAPACK's nb (default when 0).
	BlockSize int
}

// Measurement is the outcome of one executed or modelled experiment.
type Measurement struct {
	Experiment Experiment
	Config     cluster.Config
	DurationS  float64
	TotalJ     float64
	EnergyJ    rapl.Energy
	// Residual is the relative residual of the computed solution
	// (monitored engine only; 0 for analytic runs).
	Residual float64
	// Engine names which engine produced the measurement.
	Engine string
}

// AvgPowerW is the measurement's average power.
func (m Measurement) AvgPowerW() float64 {
	if m.DurationS <= 0 {
		return 0
	}
	return m.TotalJ / m.DurationS
}

// AlgorithmFlops returns the arithmetic work of the experiment's solver.
func (m Measurement) AlgorithmFlops() float64 {
	if m.Experiment.Algorithm == perfmodel.IMe {
		return ime.TotalFlops(m.Experiment.N)
	}
	return scalapack.TotalFlops(m.Experiment.N)
}

// GFlopsPerWatt is the Green500 efficiency metric the paper's introduction
// frames the study with ("the Green 500 lists the world's most
// energy-efficient supercomputers, based on floating point operations per
// second per watt"). Note it favours ScaLAPACK twice over: fewer flops AND
// less energy.
func (m Measurement) GFlopsPerWatt() float64 {
	if m.TotalJ <= 0 {
		return 0
	}
	// flops/s ÷ W = flops/J.
	return m.AlgorithmFlops() / m.TotalJ / 1e9
}

// resolveConfig validates the experiment against the machine.
func (e Experiment) resolveConfig(spec *cluster.MachineSpec) (cluster.Config, error) {
	if e.N <= 0 {
		return cluster.Config{}, fmt.Errorf("core: order %d must be positive", e.N)
	}
	return cluster.NewConfig(e.Ranks, e.Placement, spec)
}

// RunAnalytic models the experiment at paper scale.
func RunAnalytic(e Experiment, prm perfmodel.Params) (Measurement, error) {
	return runAnalytic(e, prm, nil)
}

// runAnalytic is RunAnalytic through a replay memo; a nil memo replays
// the schedule afresh.
func runAnalytic(e Experiment, prm perfmodel.Params, replays *perfmodel.Replays) (Measurement, error) {
	cfg, err := e.resolveConfig(marconiA3)
	if err != nil {
		return Measurement{}, err
	}
	res, err := replays.Run(e.Algorithm, e.N, cfg, analyticParams(e, prm))
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		Experiment: e,
		Config:     cfg,
		DurationS:  res.DurationS,
		TotalJ:     res.TotalJ,
		EnergyJ:    res.EnergyJ,
		Engine:     engineAnalytic,
	}, nil
}

// allocationBandwidth models first-touch page population during matrix
// allocation (bytes/second per rank) for the monitored engine's general
// phase.
const allocationBandwidth = 4e9

// Instrumentation requests optional observability artifacts from a
// monitored run. Both writers are optional; a nil writer disables that
// artifact and its collection entirely, so an empty Instrumentation is
// byte-identical to the uninstrumented path.
type Instrumentation struct {
	// TraceW receives the Perfetto/Chrome trace JSON (span timeline plus
	// RAPL power counter tracks).
	TraceW io.Writer
	// MetricsW receives the Prometheus text exposition of the run's
	// metrics registry (MPI traffic, per-rank activity, solver and kernel
	// pool series, RAPL energy counters).
	MetricsW io.Writer
}

// RunMonitored executes the experiment on the simulated cluster: real
// distributed numerics under the §4 monitoring framework. The system is
// generated from the experiment seed (standing in for the paper's input
// files). Feasible for small N and rank counts.
func RunMonitored(e Experiment) (Measurement, error) {
	m, _, _, err := RunMonitoredInstrumented(e, Instrumentation{})
	return m, err
}

// RunMonitoredInstrumented is RunMonitored with the telemetry layer
// switched on: it additionally streams the requested artifacts and, when
// tracing is enabled, returns the critical-path analysis of the recorded
// spans. It also returns the per-node reports the measurement sums, one
// per node in node order. Collection is passive — simulated durations,
// energies and the solution are identical to RunMonitored's.
func RunMonitoredInstrumented(e Experiment, inst Instrumentation) (Measurement, []monitor.NodeReport, *mpi.TraceStats, error) {
	cfg, err := e.resolveConfig(marconiA3)
	if err != nil {
		return Measurement{}, nil, nil, err
	}
	if e.Ranks > e.N {
		return Measurement{}, nil, nil, fmt.Errorf("core: %d ranks exceed order %d", e.Ranks, e.N)
	}
	sys := mat.CachedSystem(e.N, e.Seed)
	w, err := mpi.NewWorld(e.Ranks, mpi.Options{Config: &cfg})
	if err != nil {
		return Measurement{}, nil, nil, err
	}
	if inst.TraceW != nil {
		w.EnableTracing()
	}
	if inst.MetricsW != nil {
		w.EnableMetrics()
	}

	var mu sync.Mutex
	var reports []monitor.NodeReport
	var residual float64
	err = w.Run(func(p *mpi.Proc) error {
		s, err := monitor.Setup(p, p.World())
		if err != nil {
			return err
		}
		if e.Phase == PhaseGeneral {
			if err := s.StartMonitoring(); err != nil {
				return err
			}
		}
		// Matrix allocation: first touch of this rank's table share.
		share := allocationShareBytes(e)
		p.Compute(share/allocationBandwidth, share)
		if e.Phase == PhaseCompute {
			if err := s.StartMonitoring(); err != nil {
				return err
			}
		}
		x, err := solve(p, e, sys)
		if err != nil {
			return err
		}
		rep, err := s.StopMonitoring()
		if err != nil {
			return err
		}
		all, err := monitor.CollectReports(p, p.World(), rep)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			mu.Lock()
			reports = all
			residual = mat.RelativeResidual(sys.A, x, sys.B)
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return Measurement{}, nil, nil, err
	}

	sum := monitor.Summarize(reports)
	m := Measurement{
		Experiment: e,
		Config:     cfg,
		DurationS:  sum.DurationS,
		TotalJ:     sum.TotalJ,
		Residual:   residual,
		Engine:     engineMonitored,
	}
	for _, d := range rapl.Domains() {
		m.EnergyJ[d] = sum.ByEvent["powercap:::"+d.String()]
	}

	var ts *mpi.TraceStats
	if inst.TraceW != nil {
		if err := w.WriteChromeTrace(inst.TraceW); err != nil {
			return Measurement{}, nil, nil, fmt.Errorf("core: write trace: %w", err)
		}
		ts, err = mpi.AnalyzeSpans(w.Spans())
		if err != nil {
			return Measurement{}, nil, nil, fmt.Errorf("core: analyze trace: %w", err)
		}
	}
	if inst.MetricsW != nil {
		w.SnapshotEnergyMetrics()
		if err := w.MetricsRegistry().WritePrometheus(inst.MetricsW); err != nil {
			return Measurement{}, nil, nil, fmt.Errorf("core: write metrics: %w", err)
		}
	}
	return m, reports, ts, nil
}

// allocationShareBytes is the table memory one rank first-touches.
func allocationShareBytes(e Experiment) float64 {
	n := float64(e.N)
	perRank := n * n * mpi.Float64Bytes / float64(e.Ranks)
	if e.Algorithm == perfmodel.IMe {
		// IMe's table is n×2n (the paper's 2n² term of m_o).
		perRank *= 2
	}
	return perRank
}

// solve dispatches to the experiment's algorithm.
func solve(p *mpi.Proc, e Experiment, sys *mat.System) ([]float64, error) {
	switch e.Algorithm {
	case perfmodel.IMe:
		return ime.SolveParallel(p, p.World(), sys, ime.ParallelOptions{ChargeCosts: true})
	case perfmodel.ScaLAPACK:
		return scalapack.Pdgesv(p, p.World(), sys, scalapack.ParallelOptions{
			BlockSize:   e.BlockSize,
			ChargeCosts: true,
		})
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", e.Algorithm)
	}
}
