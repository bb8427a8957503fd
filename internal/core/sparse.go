package core

import (
	"fmt"
	"sync"

	"repro/internal/canon"
	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/rapl"
	"repro/internal/sparse"
	"repro/internal/store"
)

// Sparse workloads through the same experiment machinery as the dense
// grid: a SparseExperiment resolves to a cluster Config (heterogeneous
// when the device is an accelerator), runs through the analytic engine,
// and its cells persist under a typed store identity through the same
// runner as the dense ones (cell.go). The tests cross-check that engine
// against the executed solver under the monitoring framework.

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
	spec := marconiA3
	if e.Device == cluster.DeviceAccel {
		spec = marconiA3Accel
	}
	return cluster.NewConfig(e.Ranks, e.Placement, spec)
}

// SparseMeasurement is the outcome of one sparse experiment.
type SparseMeasurement struct {
	Experiment SparseExperiment
	DurationS  float64
	TotalJ     float64
	EnergyJ    rapl.Energy
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
// device. The sparse model has no overlap, block-size or power-cap
// semantics, so it runs at the default Params.
func RunSparseAnalytic(e SparseExperiment) (SparseMeasurement, error) {
	cfg, err := e.resolveSparseConfig()
	if err != nil {
		return SparseMeasurement{}, err
	}
	res, err := sparse.Model(e.Algorithm, e.Spec(), cfg, e.Device, perfmodel.Params{})
	if err != nil {
		return SparseMeasurement{}, err
	}
	return SparseMeasurement{
		Experiment: e,
		DurationS:  res.DurationS,
		TotalJ:     res.TotalJ,
		EnergyJ:    res.EnergyJ,
		Iters:      res.Iters,
		Engine:     engineSparseAnalytic,
	}, nil
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
	return id.appendCanonical(dst, nil)
}

// appendCanonical is AppendCanonical with the model half, when model is
// non-nil, already rendered (renderModel): id.Model is then not read.
func (id SparseCellIdentity) appendCanonical(dst, model []byte) ([]byte, bool) {
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
	switch {
	case model != nil:
		o.Raw("model", model)
	case id.Model != nil:
		o.Value("model", id.Model.AppendCanonical)
	}
	if id.Accel != nil {
		o.Value("accel", id.Accel.AppendCanonical)
	}
	return o.End()
}

// SparseAnalyticCellIdentity returns the store identity of
// RunSparseAnalytic(e).
func SparseAnalyticCellIdentity(e SparseExperiment) SparseCellIdentity {
	id := sparseIdentity(e)
	model := perfmodel.Params{}.CanonicalIdentity()
	id.Model = &model
	return id
}

// sparseModel is the model half of every sparse cell's identity, the
// default Params' CanonicalIdentity, rendered once per process.
var sparseModel = sync.OnceValue(func() []byte { return renderModel(perfmodel.Params{}) })

// sparseIdentity is SparseAnalyticCellIdentity without its model half.
// An accelerated cell's identity points at the one shared profile.
func sparseIdentity(e SparseExperiment) SparseCellIdentity {
	id := SparseCellIdentity{
		Schema:        store.SchemaVersion,
		Kind:          SparseCellKind,
		Engine:        engineSparseAnalytic,
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
	}
	if e.Device == cluster.DeviceAccel {
		id.Accel = marconiA3Accel.Accel
	}
	return id
}

// SparseAnalyticCell is RunSparseAnalytic(E) as a store cell — the
// dense pipeline's cell with a device axis, through the same runner
// (cell.go). The monitored sparse engine is not stored: it is the
// reference the analytic model is cross-checked against, not a campaign
// tier.
type SparseAnalyticCell struct {
	E SparseExperiment
}

func (c SparseAnalyticCell) kind() string { return SparseCellKind }

// identity appends SparseAnalyticCellIdentity's bytes, its model half
// the process's one rendering; what the hand codec declines,
// encoding/json decides.
func (c SparseAnalyticCell) identity(dst []byte) ([]byte, error) {
	if model := sparseModel(); model != nil {
		if b, ok := sparseIdentity(c.E).appendCanonical(dst, model); ok {
			return b, nil
		}
	}
	return store.AppendIdentity(dst, SparseAnalyticCellIdentity(c.E))
}

func (c SparseAnalyticCell) compute() (SparseMeasurement, error) {
	return RunSparseAnalytic(c.E)
}

func (c SparseAnalyticCell) encode(dst []byte, m SparseMeasurement) ([]byte, error) {
	return appendCellResult(dst, CellResult{
		DurationS: m.DurationS,
		EnergyJ:   m.EnergyJ,
		TotalJ:    m.TotalJ,
		Iters:     m.Iters,
		Residual:  m.Residual,
		Engine:    m.Engine,
	})
}

func (c SparseAnalyticCell) decode(payload []byte) (SparseMeasurement, error) {
	res, err := decodeCellResult(payload)
	if err != nil {
		return SparseMeasurement{}, err
	}
	if _, err := c.E.resolveSparseConfig(); err != nil {
		return SparseMeasurement{}, err
	}
	return SparseMeasurement{
		Experiment: c.E,
		DurationS:  res.DurationS,
		TotalJ:     res.TotalJ,
		EnergyJ:    res.EnergyJ,
		Iters:      res.Iters,
		Residual:   res.Residual,
		Engine:     res.Engine,
	}, nil
}

func (c SparseAnalyticCell) check(payload []byte) error {
	if err := checkCellResult(payload); err != nil {
		return err
	}
	_, err := c.E.resolveSparseConfig()
	return err
}
