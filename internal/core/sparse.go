package core

import (
	"fmt"
	"sync"

	"repro/internal/canon"
	"repro/internal/cluster"
	"repro/internal/mat"
	"repro/internal/monitor"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/rapl"
	"repro/internal/sparse"
	"repro/internal/store"
)

// Sparse workloads through the same experiment machinery as the dense
// grid: a SparseExperiment resolves to a cluster Config (heterogeneous
// when the device is an accelerator), runs through an analytic or a
// monitored engine, and its analytic cells persist under a typed store
// identity through the same runner as the dense ones (cell.go).

// SparseExperiment is one job specification of the sparse evaluation
// grid. Band applies to banded matrices, Density to random ones; the
// unused axis stays zero and is omitted from the store identity.
type SparseExperiment struct {
	Algorithm sparse.Algorithm
	Kind      sparse.Kind
	N         int
	Ranks     int
	Placement cluster.Placement
	// Device selects where the memory-bound kernels run.
	Device  cluster.Device
	Band    int
	Density float64
	Cond    float64
	Seed    int64
}

// Spec returns the matrix recipe of the experiment.
func (e SparseExperiment) Spec() sparse.Spec {
	return sparse.Spec{Kind: e.Kind, N: e.N, Band: e.Band, Density: e.Density, Cond: e.Cond, Seed: e.Seed}
}

// resolveSparseConfig validates the experiment against the machine that
// matches its device: accelerated runs need the heterogeneous variant.
func (e SparseExperiment) resolveSparseConfig() (cluster.Config, error) {
	if e.N <= 0 {
		return cluster.Config{}, fmt.Errorf("core: order %d must be positive", e.N)
	}
	spec := cluster.MarconiA3()
	if e.Device == cluster.DeviceAccel {
		spec = cluster.MarconiA3Accel()
	}
	return cluster.NewConfig(e.Ranks, e.Placement, spec)
}

// SparseMeasurement is the outcome of one sparse experiment.
type SparseMeasurement struct {
	Experiment SparseExperiment
	Config     cluster.Config
	DurationS  float64
	TotalJ     float64
	EnergyJ    map[rapl.Domain]float64
	// Iters is the solver iteration count (modelled or executed).
	Iters int
	// Residual is the true relative residual of the computed solution
	// (monitored engine only; 0 for analytic runs).
	Residual float64
	Engine   string
}

// AvgPowerW is the measurement's average power.
func (m SparseMeasurement) AvgPowerW() float64 {
	if m.DurationS <= 0 {
		return 0
	}
	return m.TotalJ / m.DurationS
}

// AlgorithmFlops returns the arithmetic work of the measured solve.
func (m SparseMeasurement) AlgorithmFlops() float64 {
	return sparse.WorkFlops(m.Experiment.Algorithm, m.Experiment.Spec(), m.Iters)
}

// GFlopsPerWatt is the Green500 efficiency metric over the iterative
// solve's actual work.
func (m SparseMeasurement) GFlopsPerWatt() float64 {
	if m.TotalJ <= 0 {
		return 0
	}
	return m.AlgorithmFlops() / m.TotalJ / 1e9
}

// RunSparseAnalytic models the sparse experiment at paper scale on its
// device.
func RunSparseAnalytic(e SparseExperiment, prm perfmodel.Params) (SparseMeasurement, error) {
	cfg, err := e.resolveSparseConfig()
	if err != nil {
		return SparseMeasurement{}, err
	}
	res, err := sparse.Model(e.Algorithm, e.Spec(), cfg, e.Device, prm)
	if err != nil {
		return SparseMeasurement{}, err
	}
	return SparseMeasurement{
		Experiment: e,
		Config:     cfg,
		DurationS:  res.DurationS,
		TotalJ:     res.TotalJ,
		EnergyJ:    res.EnergyJ,
		Iters:      res.Iters,
		Engine:     "sparse-analytic",
	}, nil
}

// RunSparseMonitored executes the distributed iterative solver on the
// simulated cluster under the §4 monitoring framework — real numerics,
// counters read through PAPI/RAPL. CPU-only: accelerated kernels exist
// only in the analytic engine, so a Device of accel is rejected rather
// than silently modelled.
func RunSparseMonitored(e SparseExperiment) (SparseMeasurement, error) {
	if e.Device != cluster.DeviceCPU {
		return SparseMeasurement{}, fmt.Errorf("core: monitored sparse runs are CPU-only (device %s is analytic-only)", e.Device)
	}
	cfg, err := e.resolveSparseConfig()
	if err != nil {
		return SparseMeasurement{}, err
	}
	if e.Ranks > e.N {
		return SparseMeasurement{}, fmt.Errorf("core: %d ranks exceed order %d", e.Ranks, e.N)
	}
	spec := e.Spec()
	if err := spec.Validate(); err != nil {
		return SparseMeasurement{}, err
	}
	w, err := mpi.NewWorld(e.Ranks, mpi.Options{Config: &cfg})
	if err != nil {
		return SparseMeasurement{}, err
	}
	var mu sync.Mutex
	var reports []monitor.NodeReport
	var iters int
	var residual float64
	err = w.Run(func(p *mpi.Proc) error {
		s, err := monitor.Setup(p, p.World())
		if err != nil {
			return err
		}
		if err := s.StartMonitoring(); err != nil {
			return err
		}
		sol, err := sparse.Solve(p, e.Algorithm, spec, sparse.Options{ChargeCosts: true})
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
			a, err := spec.Matrix()
			if err != nil {
				return err
			}
			b := spec.RHS()
			r := a.MulVec(sol.X)
			for i := range r {
				r[i] -= b[i]
			}
			mu.Lock()
			reports = all
			iters = sol.Iters
			residual = mat.TwoNorm(r) / mat.TwoNorm(b)
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return SparseMeasurement{}, err
	}
	sum := monitor.Summarize(reports)
	m := SparseMeasurement{
		Experiment: e,
		Config:     cfg,
		DurationS:  sum.DurationS,
		TotalJ:     sum.TotalJ,
		EnergyJ:    make(map[rapl.Domain]float64, 4),
		Iters:      iters,
		Residual:   residual,
		Engine:     "sparse-monitored",
	}
	for _, d := range rapl.Domains() {
		m.EnergyJ[d] = sum.ByEvent["powercap:::"+d.String()]
	}
	return m, nil
}

// SparseCellKind records one sparse-grid SparseMeasurement.
const SparseCellKind = "sparse-cell"

// SparseCellIdentity is the canonical store identity of one sparse cell:
// the sparse coordinates (matrix kind, structure axis, condition target,
// device) plus the model's version stamps. The analytic engine ignores
// the input seed (its iteration model depends only on the condition
// target), so the seed is not part of the identity.
type SparseCellIdentity struct {
	Schema    int     `json:"schema"`
	Kind      string  `json:"kind"`
	Engine    string  `json:"engine"`
	Algorithm string  `json:"algorithm"`
	Matrix    string  `json:"matrix"`
	N         int     `json:"n"`
	Ranks     int     `json:"ranks"`
	Placement string  `json:"placement"`
	Device    string  `json:"device"`
	Band      int     `json:"band,omitempty"`
	Density   float64 `json:"density,omitempty"`
	Cond      float64 `json:"cond"`
	// EngineVersion stamps the engine semantics (sparse.ModelVersion).
	EngineVersion string `json:"engine_version"`
	// Model is the versioned cost/calibration identity.
	Model *perfmodel.CanonicalIdentity `json:"model,omitempty"`
	// Accel pins the accelerator profile the cell was modelled against
	// (accelerated cells only) — a different device profile is a
	// different experiment.
	Accel *cluster.AcceleratorSpec `json:"accel,omitempty"`
}

// AppendCanonical appends the identity's canonical JSON: what
// encoding/json emits for it, which canon_test.go holds it to.
func (id SparseCellIdentity) AppendCanonical(dst []byte) ([]byte, bool) {
	o := canon.Begin(dst)
	o.Int("schema", int64(id.Schema))
	o.String("kind", id.Kind)
	o.String("engine", id.Engine)
	o.String("algorithm", id.Algorithm)
	o.String("matrix", id.Matrix)
	o.Int("n", int64(id.N))
	o.Int("ranks", int64(id.Ranks))
	o.String("placement", id.Placement)
	o.String("device", id.Device)
	if id.Band != 0 {
		o.Int("band", int64(id.Band))
	}
	if id.Density != 0 {
		o.Float("density", id.Density)
	}
	o.Float("cond", id.Cond)
	o.String("engine_version", id.EngineVersion)
	if id.Model != nil {
		o.Value("model", id.Model.AppendCanonical)
	}
	if id.Accel != nil {
		o.Value("accel", id.Accel.AppendCanonical)
	}
	return o.End()
}

// SparseAnalyticCellIdentity returns the store identity of
// RunSparseAnalytic(e, prm).
func SparseAnalyticCellIdentity(e SparseExperiment, prm perfmodel.Params) SparseCellIdentity {
	model := prm.CanonicalIdentity()
	id := SparseCellIdentity{
		Schema:        store.SchemaVersion,
		Kind:          SparseCellKind,
		Engine:        "sparse-analytic",
		Algorithm:     e.Algorithm.String(),
		Matrix:        e.Kind.String(),
		N:             e.N,
		Ranks:         e.Ranks,
		Placement:     e.Placement.String(),
		Device:        e.Device.String(),
		Band:          e.Band,
		Density:       e.Density,
		Cond:          e.Cond,
		EngineVersion: sparse.ModelVersion,
		Model:         &model,
	}
	if e.Device == cluster.DeviceAccel {
		id.Accel = cluster.MarconiA3Accel().Accel
	}
	return id
}

// SparseAnalyticCell is RunSparseAnalytic(E, Params) as a store cell —
// the dense pipeline's cell with a device axis, through the same runner
// (cell.go). The monitored sparse engine is not stored: it is the
// reference the analytic model is cross-checked against, not a campaign
// tier.
type SparseAnalyticCell struct {
	E      SparseExperiment
	Params perfmodel.Params
}

func (c SparseAnalyticCell) kind() string { return SparseCellKind }

func (c SparseAnalyticCell) identity(dst []byte) ([]byte, error) {
	return appendIdentity(dst, SparseAnalyticCellIdentity(c.E, c.Params))
}

func (c SparseAnalyticCell) compute() (SparseMeasurement, error) {
	return RunSparseAnalytic(c.E, c.Params)
}

func (c SparseAnalyticCell) encode(dst []byte, m SparseMeasurement) ([]byte, error) {
	return appendCellResult(dst, CellResult{
		DurationS: m.DurationS,
		EnergyJ:   energyByName(m.EnergyJ),
		TotalJ:    m.TotalJ,
		Iters:     m.Iters,
		Residual:  m.Residual,
		Engine:    m.Engine,
	})
}

func (c SparseAnalyticCell) decode(payload []byte) (SparseMeasurement, error) {
	res, energy, err := decodeCellResult(payload)
	if err != nil {
		return SparseMeasurement{}, err
	}
	cfg, err := c.E.resolveSparseConfig()
	if err != nil {
		return SparseMeasurement{}, err
	}
	return SparseMeasurement{
		Experiment: c.E,
		Config:     cfg,
		DurationS:  res.DurationS,
		TotalJ:     res.TotalJ,
		EnergyJ:    energy,
		Iters:      res.Iters,
		Residual:   res.Residual,
		Engine:     res.Engine,
	}, nil
}
