package core

import (
	"encoding/json"

	"repro/internal/canon"
	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/store"
)

// The dense and resilience cells: the typed identities, and the
// descriptors the runner (cell.go) memoizes them through. They live here,
// next to the engines that define what makes two runs "the same
// experiment"; internal/store stays generic.

// Record kinds written by this package.
const (
	// CellKind records one grid-cell Measurement (analytic or monitored).
	CellKind = "cell"
	// ResilienceKind records one RunResilient outcome.
	ResilienceKind = "resilience"
)

// MonitoredEngineVersion stamps the simulated-MPI execution semantics —
// solver numerics, the monitoring framework's accounting, and the
// RAPL/power simulation the monitored engine integrates energy with.
// Bump it whenever a monitored run's outputs change for an identical
// Experiment, so stored monitored cells are never served stale.
const MonitoredEngineVersion = "simulated-mpi/v1"

// ResilienceEngineVersion stamps RunResilient's semantics: the crash
// scheduling, both recovery mechanisms, and the charging rules. It
// extends MonitoredEngineVersion (which covers the underlying solver
// worlds) rather than replacing it.
const ResilienceEngineVersion = "resilience/v1"

// CellIdentity is the canonical store identity of one experiment cell.
// It is what "the same experiment" means persistently: engine, cell
// coordinates, and — per engine — either the full versioned analytic
// model identity or the monitored engine's inputs and version. Fields
// irrelevant to an engine are omitted so spelling variants collapse (an
// analytic run ignores the input seed; keying on it would split one
// experiment across many records).
type CellIdentity struct {
	Schema    int    `json:"schema"`
	Kind      string `json:"kind"`
	Engine    string `json:"engine"`
	Algorithm string `json:"algorithm"`
	N         int    `json:"n"`
	Ranks     int    `json:"ranks"`
	Placement string `json:"placement"`
	// Seed, Phase, BlockSize and EngineVersion identify monitored runs
	// (the analytic engine folds BlockSize into Model.Params).
	Seed          int64  `json:"seed,omitempty"`
	Phase         string `json:"phase,omitempty"`
	BlockSize     int    `json:"block_size,omitempty"`
	EngineVersion string `json:"engine_version,omitempty"`
	// Model is the versioned analytic identity (analytic cells only).
	Model *perfmodel.CanonicalIdentity `json:"model,omitempty"`
}

// AppendCanonical appends the identity's canonical JSON: what
// encoding/json emits for it, which canon_test.go holds it to.
func (id CellIdentity) AppendCanonical(dst []byte) ([]byte, bool) {
	return id.appendCanonical(dst, nil)
}

// appendCanonical is AppendCanonical with the model half, when model is
// non-nil, already rendered (renderModel): id.Model is then not read.
func (id CellIdentity) appendCanonical(dst, model []byte) ([]byte, bool) {
	o := canon.Begin(dst)
	o.Int("schema", int64(id.Schema))
	o.String("kind", id.Kind)
	o.String("engine", id.Engine)
	o.String("algorithm", id.Algorithm)
	o.Int("n", int64(id.N))
	o.Int("ranks", int64(id.Ranks))
	o.String("placement", id.Placement)
	if id.Seed != 0 {
		o.Int("seed", id.Seed)
	}
	if id.Phase != "" {
		o.String("phase", id.Phase)
	}
	if id.BlockSize != 0 {
		o.Int("block_size", int64(id.BlockSize))
	}
	if id.EngineVersion != "" {
		o.String("engine_version", id.EngineVersion)
	}
	switch {
	case model != nil:
		o.Raw("model", model)
	case id.Model != nil:
		o.Value("model", id.Model.AppendCanonical)
	}
	return o.End()
}

// renderModel renders the model half of the identity of a cell under
// prm, for a cell set to hand to every cell it builds under prm; nil when
// the hand codec declines it, and each cell then renders its own.
func renderModel(prm perfmodel.Params) []byte {
	b, ok := prm.CanonicalIdentity().AppendCanonical(nil)
	if !ok {
		return nil
	}
	return b
}

// AnalyticCellIdentity returns the store identity of RunAnalytic(e, prm).
// It mirrors RunAnalytic's parameter resolution exactly: the experiment's
// BlockSize override is folded into the params before normalization, so
// Experiment{BlockSize: 64} and Params{BlockSize: 64} are one key.
func AnalyticCellIdentity(e Experiment, prm perfmodel.Params) CellIdentity {
	id := analyticIdentity(e)
	model := analyticParams(e, prm).CanonicalIdentity()
	id.Model = &model
	return id
}

// analyticIdentity is AnalyticCellIdentity without its model half.
func analyticIdentity(e Experiment) CellIdentity {
	return CellIdentity{
		Schema:    store.SchemaVersion,
		Kind:      CellKind,
		Engine:    engineAnalytic,
		Algorithm: e.Algorithm.String(),
		N:         e.N,
		Ranks:     e.Ranks,
		Placement: e.Placement.String(),
	}
}

// analyticParams folds the experiment's BlockSize override into prm, as
// RunAnalytic does.
func analyticParams(e Experiment, prm perfmodel.Params) perfmodel.Params {
	if e.BlockSize > 0 {
		prm.BlockSize = e.BlockSize
	}
	return prm
}

// MonitoredCellIdentity returns the store identity of RunMonitored(e).
func MonitoredCellIdentity(e Experiment) CellIdentity {
	return CellIdentity{
		Schema:        store.SchemaVersion,
		Kind:          CellKind,
		Engine:        engineMonitored,
		Algorithm:     e.Algorithm.String(),
		N:             e.N,
		Ranks:         e.Ranks,
		Placement:     e.Placement.String(),
		Seed:          e.Seed,
		Phase:         e.Phase.String(),
		BlockSize:     e.BlockSize,
		EngineVersion: MonitoredEngineVersion,
	}
}

// encodeMeasurement appends the persisted form of a dense Measurement.
func encodeMeasurement(dst []byte, m Measurement) ([]byte, error) {
	return appendCellResult(dst, CellResult{
		DurationS: m.DurationS,
		EnergyJ:   m.EnergyJ,
		TotalJ:    m.TotalJ,
		Residual:  m.Residual,
		Engine:    m.Engine,
	})
}

// decodeMeasurement rebuilds the Measurement a stored cell recorded,
// re-deriving the cluster Config from the experiment.
func decodeMeasurement(e Experiment, payload []byte) (Measurement, error) {
	res, err := decodeCellResult(payload)
	if err != nil {
		return Measurement{}, err
	}
	cfg, err := e.resolveConfig(marconiA3)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		Experiment: e,
		Config:     cfg,
		DurationS:  res.DurationS,
		TotalJ:     res.TotalJ,
		EnergyJ:    res.EnergyJ,
		Residual:   res.Residual,
		Engine:     res.Engine,
	}, nil
}

// checkMeasurement fails exactly when decodeMeasurement does, building
// nothing.
func checkMeasurement(e Experiment, payload []byte) error {
	if err := checkCellResult(payload); err != nil {
		return err
	}
	_, err := e.resolveConfig(marconiA3)
	return err
}

// The machines a restored measurement's Config points at, each built
// once: a hit re-derives its Config without building a spec. Nothing
// mutates a Config's spec; a caller that resizes the machine (sched's
// fleet) copies it first.
var (
	marconiA3      = cluster.MarconiA3()
	marconiA3Accel = cluster.MarconiA3Accel()
)

// AnalyticCell is RunAnalytic(E, Params) as a store cell. A cell set, or
// Evaluator.Analytic, builds its cells with the evaluator's replay memo,
// so an evaluation replays each distinct schedule once; a cell built on
// its own replays its schedule every time it computes, as RunAnalytic
// does. Either way it computes the same bits.
type AnalyticCell struct {
	E      Experiment
	Params perfmodel.Params
	// model, when non-nil, is renderModel(Params): a cell set renders it
	// once for all its cells, none of which overrides the block size. A
	// cell built on its own leaves it nil and renders its own.
	model []byte
	// replays is the evaluator's memo (Evaluator.replays), nil for a cell
	// built on its own.
	replays *perfmodel.Replays
}

func (c AnalyticCell) kind() string { return CellKind }
func (c AnalyticCell) compute() (Measurement, error) {
	return runAnalytic(c.E, c.Params, c.replays)
}

// identity appends AnalyticCellIdentity's bytes. The model half is the
// set's rendering, or else the cell's own from a value on the stack; what
// the hand codec declines, encoding/json decides.
func (c AnalyticCell) identity(dst []byte) ([]byte, error) {
	id := analyticIdentity(c.E)
	var model perfmodel.CanonicalIdentity
	if c.model == nil {
		model = analyticParams(c.E, c.Params).CanonicalIdentity()
		id.Model = &model
	}
	if b, ok := id.appendCanonical(dst, c.model); ok {
		return b, nil
	}
	return store.AppendIdentity(dst, AnalyticCellIdentity(c.E, c.Params))
}

func (c AnalyticCell) encode(dst []byte, m Measurement) ([]byte, error) {
	return encodeMeasurement(dst, m)
}

func (c AnalyticCell) decode(payload []byte) (Measurement, error) {
	return decodeMeasurement(c.E, payload)
}

func (c AnalyticCell) check(payload []byte) error { return checkMeasurement(c.E, payload) }

// MonitoredCell is RunMonitored(e) as a store cell.
type MonitoredCell Experiment

func (c MonitoredCell) kind() string                  { return CellKind }
func (c MonitoredCell) compute() (Measurement, error) { return RunMonitored(Experiment(c)) }

func (c MonitoredCell) identity(dst []byte) ([]byte, error) {
	return store.AppendIdentity(dst, MonitoredCellIdentity(Experiment(c)))
}

func (c MonitoredCell) encode(dst []byte, m Measurement) ([]byte, error) {
	return encodeMeasurement(dst, m)
}

func (c MonitoredCell) decode(payload []byte) (Measurement, error) {
	return decodeMeasurement(Experiment(c), payload)
}

func (c MonitoredCell) check(payload []byte) error { return checkMeasurement(Experiment(c), payload) }

// LookupAnalyticCell serves RunAnalytic(e, prm) from the store without
// ever computing; ok is false on a miss (or a nil store).
func LookupAnalyticCell(st *store.Store, e Experiment, prm perfmodel.Params) (Measurement, bool, error) {
	return lookup(st, AnalyticCell{E: e, Params: prm})
}

// RunAnalyticStored is RunAnalytic with store-backed memoization: a hit
// skips the model entirely, a miss computes and appends. computed
// reports whether the model actually ran. A nil store degrades to plain
// RunAnalytic.
func RunAnalyticStored(e Experiment, prm perfmodel.Params, st *store.Store) (m Measurement, computed bool, err error) {
	return Run(st, AnalyticCell{E: e, Params: prm}, nil)
}

// ResilienceIdentity is the canonical store identity of one RunResilient
// execution: the experiment, the full fault schedule parameterisation
// (MTBF, crash seed), the checkpoint plan, and the engine
// versions whose semantics the outcome depends on. Defaults are resolved
// before keying so spelling variants collapse.
type ResilienceIdentity struct {
	Schema          int     `json:"schema"`
	Kind            string  `json:"kind"`
	EngineVersion   string  `json:"engine_version"`
	Monitored       string  `json:"monitored_version"`
	Algorithm       string  `json:"algorithm"`
	N               int     `json:"n"`
	Ranks           int     `json:"ranks"`
	Placement       string  `json:"placement"`
	InputSeed       int64   `json:"input_seed"`
	BlockSize       int     `json:"block_size,omitempty"`
	MTBF            float64 `json:"mtbf_s"`
	FaultSeed       int64   `json:"fault_seed"`
	CheckpointEvery int     `json:"checkpoint_every"`
	DetectS         float64 `json:"detect_s,omitempty"`
	StorageBps      float64 `json:"storage_bandwidth_bps"`
	StorageLatS     float64 `json:"storage_latency_s"`
}

// resilienceCell is RunResilient(e, ro) as a store cell — the expensive
// tier of the paper campaign (each run executes several solver worlds),
// and therefore the tier where memoization pays most. Its lookups are a
// dozen per campaign, so identity and payload stay on encoding/json. The
// measurement is its own payload: its JSON form leaves out what the
// identity carries.
type resilienceCell struct {
	e  Experiment
	ro ResilienceOptions
}

func (c resilienceCell) kind() string { return ResilienceKind }

// identity mirrors RunResilient's default resolution.
func (c resilienceCell) identity(dst []byte) ([]byte, error) {
	e, ro := c.e, c.ro
	if ro.Storage == (ckpt.CostModel{}) {
		ro.Storage = ckpt.DefaultCostModel()
	}
	return store.AppendIdentity(dst, ResilienceIdentity{
		Schema:          store.SchemaVersion,
		Kind:            ResilienceKind,
		EngineVersion:   ResilienceEngineVersion,
		Monitored:       MonitoredEngineVersion,
		Algorithm:       e.Algorithm.String(),
		N:               e.N,
		Ranks:           e.Ranks,
		Placement:       e.Placement.String(),
		InputSeed:       e.Seed,
		BlockSize:       e.BlockSize,
		MTBF:            ro.MTBF,
		FaultSeed:       ro.Seed,
		CheckpointEvery: checkpointEvery,
		DetectS:         ro.Detect,
		StorageBps:      ro.Storage.BandwidthBps,
		StorageLatS:     ro.Storage.LatencyS,
	})
}

func (c resilienceCell) compute() (ResilientMeasurement, error) { return RunResilient(c.e, c.ro) }

func (c resilienceCell) encode(dst []byte, rm ResilientMeasurement) ([]byte, error) {
	b, err := json.Marshal(rm)
	return append(dst, b...), err
}

func (c resilienceCell) decode(payload []byte) (ResilientMeasurement, error) {
	var rm ResilientMeasurement
	if err := json.Unmarshal(payload, &rm); err != nil {
		return ResilientMeasurement{}, err
	}
	rm.Experiment, rm.MTBF = c.e, c.ro.MTBF
	return rm, nil
}

func (c resilienceCell) check(payload []byte) error {
	_, err := c.decode(payload)
	return err
}
