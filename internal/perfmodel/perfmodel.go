// Package perfmodel is the analytic time/energy engine that replays the
// solvers' schedules at paper scale (n up to 34560, up to 1296 ranks) —
// sizes the executable simulated-MPI engine cannot reach in reasonable
// wall time. It shares every cost constant with the executable solvers
// (ime.EffFlopsPerCore, scalapack.DramBytesPerFlop, mpi.CostModel, the
// power calibration) and is cross-checked against them from 2 up to 576
// ranks in crosscheck_test.go.
//
// Modelling assumptions, each tied to an algorithmic property:
//
//   - IMe has no pivoting, so its data flow is fully predictable: the
//     per-level pivot-row broadcast pipelines with the fundamental-formula
//     update, and the h broadcast and last-row gather are off the critical
//     path (no rank's compute consumes them). With Overlap enabled the
//     exposed per-level cost is max(compute, pivot broadcast); the
//     executable engine is synchronous, so cross-checks run Overlap=false.
//   - ScaLAPACK's partial pivoting serialises one MAXLOC allreduce, a row
//     swap and a pivot-row broadcast per column — data-dependent work that
//     no lookahead can hide. The panel/update broadcasts do overlap with
//     the trailing GEMM when Overlap is enabled (pdgetrf lookahead).
//   - During a job every core is busy (computing or busy-polling MPI), so
//     package power follows the placement's active-core counts for the
//     whole duration; compute seconds are charged at the algorithm's
//     activity factor, poll time at nominal.
package perfmodel

import (
	"fmt"
	"strings"

	"repro/internal/canon"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/power"
	"repro/internal/rapl"
	"repro/internal/scalapack"
)

// Algorithm selects the solver being modelled.
type Algorithm int

const (
	// IMe is the parallel Inhibition Method (IMeP).
	IMe Algorithm = iota
	// ScaLAPACK is block-cyclic Gaussian elimination with partial pivoting.
	ScaLAPACK
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case IMe:
		return "IMe"
	case ScaLAPACK:
		return "ScaLAPACK"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Algorithms lists both solvers in paper order.
func Algorithms() []Algorithm { return []Algorithm{IMe, ScaLAPACK} }

// ParseAlgorithm is the inverse of Algorithm.String (case-insensitive),
// for request-driven callers that receive algorithm names as text.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if strings.EqualFold(s, a.String()) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("perfmodel: unknown algorithm %q (want IMe or ScaLAPACK)", s)
}

// Params configures a model run.
type Params struct {
	// Cost is the communication model (DefaultCostModel if zero).
	Cost mpi.CostModel
	// Calibration is the node power model (Skylake8160 if zero).
	Calibration power.Calibration
	// Overlap enables communication/computation overlap (see package
	// comment). The figure benches enable it; cross-checks against the
	// synchronous executable engine disable it.
	Overlap bool
	// BlockSize is ScaLAPACK's nb (DefaultBlockSize if 0).
	BlockSize int
	// PowerCapW applies a RAPL PL1 cap to every package (0 = uncapped) —
	// the paper's future-work experiment.
	PowerCapW float64
	// NodeVariability models the run-to-run machine variation the paper
	// reports ("variations in the processors used for each execution,
	// thereby limiting the precision", §5.3): each run's duration and
	// power are scaled by deterministic factors in
	// [1−NodeVariability, 1+NodeVariability] drawn from NoiseSeed.
	// Zero (the default) keeps runs exactly reproducible.
	NodeVariability float64
	NoiseSeed       int64
}

// jitterFactors derives the run's time and power scale factors from the
// seed with a splitmix64 hash, so repetitions are deterministic.
func (prm Params) jitterFactors() (fTime, fPower float64) {
	if prm.NodeVariability <= 0 {
		return 1, 1
	}
	v := prm.NodeVariability
	if v > 0.5 {
		v = 0.5
	}
	next := func(x uint64) uint64 {
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	h1 := next(uint64(prm.NoiseSeed))
	h2 := next(h1)
	unit := func(h uint64) float64 { return float64(h%(1<<20))/float64(1<<20)*2 - 1 } // in [-1,1)
	return 1 + v*unit(h1), 1 + v*unit(h2)
}

// Normalized returns the params with every defaulted field resolved to
// its concrete value (cost model, calibration, block size). Two Params
// that normalize equal produce identical model outputs, which is what
// lets request-driven callers use the normalized value as a cache
// identity.
func (prm Params) Normalized() Params {
	prm.normalize()
	return prm
}

// ModelVersion stamps the analytic engine's schedule-replay semantics —
// the per-level/per-column critical-path formulas in ime_model.go and
// scalapack_model.go and the energy integration in energy.go. Bump it on
// any change that alters model outputs for identical Params, so results
// persisted across processes are never served across model changes.
const ModelVersion = "analytic/v1"

// CanonicalIdentity is the persistent cache identity of a Params value:
// the in-process Normalized identity extended with the version stamps of
// every versioned model input. Within one process Normalized alone is a
// sound cache key (the code cannot change under it); across processes and
// code revisions it is not — the same normalized parameters mean
// different results once a model formula, the cost-model semantics, the
// power-model semantics, or a learned coefficient table changes. A
// content-addressed store therefore keys on this struct's canonical JSON:
// equal spellings of a request collapse to one key, and any version bump
// yields a fresh key instead of a stale hit.
type CanonicalIdentity struct {
	// Params is the fully normalized parameter set, concrete constants
	// included (a calibration retune changes the identity by itself).
	Params Params `json:"params"`
	// Model is ModelVersion: the analytic schedule-replay semantics.
	Model string `json:"model"`
	// Cost is mpi.CostModelVersion: the communication-model semantics.
	Cost string `json:"cost"`
	// Calibration is power.CalibrationVersion: the power-model semantics.
	Calibration string `json:"calibration"`
	// Coefficients names the learned coefficient table a result was
	// derived from (surrogate.Predictor.Version()); empty for exact
	// analytic results. Exact and surrogate-derived results must never
	// share an identity, and retrained tables must never serve results
	// fitted by their predecessors.
	Coefficients string `json:"coefficients,omitempty"`
}

// CanonicalIdentity returns the versioned identity of an exact analytic
// evaluation under these params. Callers persisting surrogate-derived
// results set Coefficients to the predictor's table version themselves.
func (prm Params) CanonicalIdentity() CanonicalIdentity {
	return CanonicalIdentity{
		Params:      prm.Normalized(),
		Model:       ModelVersion,
		Cost:        mpi.CostModelVersion,
		Calibration: power.CalibrationVersion,
	}
}

// AppendCanonical appends the identity's canonical JSON as the model half
// of a cell's store identity (see internal/canon): exactly what
// encoding/json emits for it, which internal/core/canon_test.go holds it
// to field by field.
func (id CanonicalIdentity) AppendCanonical(dst []byte) ([]byte, bool) {
	o := canon.Begin(dst)
	o.Value("params", id.Params.AppendCanonical)
	o.String("model", id.Model)
	o.String("cost", id.Cost)
	o.String("calibration", id.Calibration)
	if id.Coefficients != "" {
		o.String("coefficients", id.Coefficients)
	}
	return o.End()
}

// AppendCanonical appends the params' canonical JSON, untagged Go field
// names and all: they have been part of every stored key since the first.
func (prm Params) AppendCanonical(dst []byte) ([]byte, bool) {
	o := canon.Begin(dst)
	o.Value("Cost", prm.Cost.AppendCanonical)
	o.Value("Calibration", prm.Calibration.AppendCanonical)
	o.Bool("Overlap", prm.Overlap)
	o.Int("BlockSize", int64(prm.BlockSize))
	o.Float("PowerCapW", prm.PowerCapW)
	o.Float("NodeVariability", prm.NodeVariability)
	o.Int("NoiseSeed", prm.NoiseSeed)
	return o.End()
}

func (prm *Params) normalize() {
	if prm.Cost == (mpi.CostModel{}) {
		prm.Cost = mpi.DefaultCostModel()
	}
	if prm.Calibration == (power.Calibration{}) {
		prm.Calibration = power.Skylake8160()
	}
	if prm.BlockSize <= 0 {
		prm.BlockSize = scalapack.DefaultBlockSize
	}
}

// Result is one modelled execution.
type Result struct {
	Algorithm Algorithm
	N         int
	Config    cluster.Config

	// DurationS is the modelled makespan; ComputeS and ExposedCommS are
	// its breakdown (per the critical-path rank).
	DurationS    float64
	ComputeS     float64
	ExposedCommS float64

	// Energy per RAPL domain summed over all nodes, in joules.
	EnergyJ map[rapl.Domain]float64
	// TotalJ sums the four monitored domains.
	TotalJ float64
}

// AvgPowerW is the whole-job average power.
func (r Result) AvgPowerW() float64 {
	if r.DurationS <= 0 {
		return 0
	}
	return r.TotalJ / r.DurationS
}

// PkgJ returns the package-domain energy.
func (r Result) PkgJ() float64 { return r.EnergyJ[rapl.PKG0] + r.EnergyJ[rapl.PKG1] }

// DramJ returns the DRAM-domain energy.
func (r Result) DramJ() float64 { return r.EnergyJ[rapl.DRAM0] + r.EnergyJ[rapl.DRAM1] }

// DramPowerW is the average DRAM power over the run.
func (r Result) DramPowerW() float64 {
	if r.DurationS <= 0 {
		return 0
	}
	return r.DramJ() / r.DurationS
}

// Run models one (algorithm, order, configuration) execution.
func Run(alg Algorithm, n int, cfg cluster.Config, prm Params) (Result, error) {
	prm.normalize()
	if n <= 0 {
		return Result{}, fmt.Errorf("perfmodel: order %d must be positive", n)
	}
	if cfg.Ranks <= 0 {
		return Result{}, fmt.Errorf("perfmodel: configuration has no ranks")
	}
	if err := prm.Cost.Validate(); err != nil {
		return Result{}, err
	}
	if err := prm.Calibration.Validate(); err != nil {
		return Result{}, err
	}

	capStretch := prm.capStretch(cfg)

	// Single-node jobs ride shared memory; multi-node jobs the fabric.
	intra := cfg.Nodes <= 1
	var t timeBreakdown
	var err error
	switch alg {
	case IMe:
		t, err = imeTime(n, cfg.Ranks, prm, intra, capStretch)
	case ScaLAPACK:
		t, err = scalapackTime(n, cfg.Ranks, prm, intra, capStretch)
	default:
		return Result{}, fmt.Errorf("perfmodel: unknown algorithm %v", alg)
	}
	if err != nil {
		return Result{}, err
	}
	return resultFromTimes(alg, n, cfg, prm, t, capStretch), nil
}

// ResultFromTimes assembles a full Result — energy integration, jitter,
// totals — from an externally supplied pre-jitter time breakdown, using
// the exact power model. This is the seam the learned surrogate plugs
// into: it predicts the schedule-replay seconds (the O(n) part of Run)
// and delegates the O(1) power integration here, so surrogate energies
// inherit the model's calibration exactly and only carry the time error.
func ResultFromTimes(alg Algorithm, n int, cfg cluster.Config, prm Params, computeS, exposedCommS float64) Result {
	prm.normalize()
	return resultFromTimes(alg, n, cfg, prm, timeBreakdown{compute: computeS, exposedComm: exposedCommS}, prm.capStretch(cfg))
}

// capStretch is the factor by which PowerCapW stretches compute via RAPL
// frequency scaling (1 uncapped); the worst-stretched socket of the
// placement governs the makespan. Expects normalized params.
func (prm Params) capStretch(cfg cluster.Config) float64 {
	stretch := 1.0
	if prm.PowerCapW > 0 {
		for s := 0; s < 2; s++ {
			if cores := cfg.ActiveCores(s); cores > 0 {
				if sl := prm.Calibration.SlowdownUnderCap(prm.PowerCapW, cores, s); sl > stretch {
					stretch = sl
				}
			}
		}
	}
	return stretch
}

// resultFromTimes is the shared tail of Run and ResultFromTimes: machine
// variability jitter, then energy integration over the jittered schedule.
func resultFromTimes(alg Algorithm, n int, cfg cluster.Config, prm Params, t timeBreakdown, capStretch float64) Result {
	res := Result{
		Algorithm:    alg,
		N:            n,
		Config:       cfg,
		DurationS:    t.compute + t.exposedComm,
		ComputeS:     t.compute,
		ExposedCommS: t.exposedComm,
	}
	// Machine variability: a slower chip stretches everything; a hotter
	// one draws more power for the same schedule.
	fTime, fPower := prm.jitterFactors()
	res.DurationS *= fTime
	res.ComputeS *= fTime
	res.ExposedCommS *= fTime

	res.EnergyJ = energyFor(alg, n, cfg, prm, res.DurationS, res.ComputeS, capStretch)
	for _, d := range rapl.Domains() {
		res.EnergyJ[d] *= fPower
		res.TotalJ += res.EnergyJ[d]
	}
	return res
}

// timeBreakdown separates the critical path into compute and exposed
// communication seconds.
type timeBreakdown struct {
	compute     float64
	exposedComm float64
}
