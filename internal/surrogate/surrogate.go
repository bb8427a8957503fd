// Package surrogate is the advisor's learned fast path: an interpolating
// predictor that answers "how long, how many joules" in O(µs) instead of
// replaying a solver schedule level by level (the O(n) loops of
// internal/perfmodel) or running a simulated-MPI world. EfiMon (PAPERS.md)
// makes the case for predicting granular power from cheap observable
// features rather than measuring; this package is that idea applied to the
// serving stack, so a cache miss on /v1/recommend no longer costs a model
// replay.
//
// Shape of the model, and why:
//
//   - Algorithm, placement class, communication overlap and rank count are
//     categorical features: rank counts are discrete machine configurations
//     (placement-divisible node multiples), not a continuum, and the exact
//     model's dependence on them is non-smooth (process-grid factorisation,
//     tree depths). One model per (algorithm, placement, overlap, ranks)
//     tuple sidesteps all of that.
//   - Matrix order n is the continuous axis. Per tuple the predictor stores
//     natural cubic splines in x = ln n over log-spaced knots (the paper's
//     §5.1 orders are always knots), fitted to internal/perfmodel runs via
//     internal/grid. Interpolation — not regression — means on-knot queries
//     reproduce the exact model to float rounding, which is what keeps the
//     advisor's recommended solver byte-identical across the paper grid.
//   - Targets are the schedule-replay seconds (compute, exposed
//     communication) in log space, each first divided by an O(1) work-shape
//     feature (feature.go) that carries the target's non-smooth part: IMe's
//     compute jumps by 1/rows at every multiple of ranks (rows-per-rank
//     staircase) and its exposed comm shifts a hinge crossing there, while
//     the residual ratios are smooth. Energy is NOT a learned target:
//     predicted times feed perfmodel.ResultFromTimes, so surrogate energies
//     inherit the exact power calibration and carry only the time error.
//
// The error envelope is pinned twice in tests: max relative error of
// duration and total energy against internal/perfmodel over on- and
// off-knot validation points (surrogate_test.go), and agreement with the
// executable simulated-MPI engine within the same band the analytic model
// itself is held to (crosscheck). Queries outside the envelope — unknown
// rank count, n outside the knot range, non-default cost/calibration/block
// size, power caps, single-node shapes — are simply not predicted; the
// caller falls back to the exact path.
package surrogate

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/scalapack"
)

// Version is the coefficient-table schema version this package reads.
// Bump it together with any change to the table layout or the feature
// definitions; Load rejects mismatched tables so a stale committed table
// can never silently serve wrong predictions.
const Version = "surrogate-v1"

//go:embed testdata/coeffs.json
var embeddedTable []byte

// Table is the serialized form of a trained predictor, committed to
// testdata/coeffs.json and regenerated with:
//
//	go test ./internal/surrogate -run TestTrain -update-surrogate
type Table struct {
	Version string `json:"version"`
	// Spec names the machine the models were trained for.
	Spec string `json:"spec"`
	// MaxRelErrDuration / MaxRelErrEnergy are the worst relative errors
	// observed against perfmodel over the training-time validation sweep
	// (off-knot log-uniform points plus rows-per-rank staircase edges).
	// They are recorded for provenance; the pinned envelope lives in
	// surrogate_test.go and must hold with headroom over these.
	MaxRelErrDuration float64      `json:"max_rel_err_duration"`
	MaxRelErrEnergy   float64      `json:"max_rel_err_energy"`
	Models            []TableModel `json:"models"`
}

// TableModel is one (algorithm, placement, overlap, ranks) tuple's knots.
type TableModel struct {
	Algorithm string `json:"algorithm"`
	Placement string `json:"placement"`
	Overlap   bool   `json:"overlap"`
	Ranks     int    `json:"ranks"`
	// Ns are the knot matrix orders (ascending). LnCompute holds
	// ln(computeS / feature(n)) and LnComm ln(exposedCommS /
	// commFeature(n)) at each knot, where the features are the
	// algorithm's O(1) work-shape divisors (see feature.go).
	Ns        []int     `json:"ns"`
	LnCompute []float64 `json:"ln_compute"`
	LnComm    []float64 `json:"ln_comm"`
}

// modelKey addresses one trained tuple.
type modelKey struct {
	alg     perfmodel.Algorithm
	pl      cluster.Placement
	overlap bool
	ranks   int
}

// model is one loaded tuple: splines over x = ln n.
type model struct {
	nLo, nHi int
	compute  spline
	comm     spline
}

// Predictor answers eligible queries from the trained table. Construct
// with Load or Default; safe for concurrent use (read-only after load).
type Predictor struct {
	version string
	models  map[modelKey]*model
}

// Load parses and validates a serialized table.
func Load(data []byte) (*Predictor, error) {
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("surrogate: parse table: %w", err)
	}
	if t.Version != Version {
		return nil, fmt.Errorf("surrogate: table version %q, want %q (regenerate with -update-surrogate)", t.Version, Version)
	}
	p := &Predictor{version: t.Version, models: make(map[modelKey]*model, len(t.Models))}
	for i, tm := range t.Models {
		alg, err := perfmodel.ParseAlgorithm(tm.Algorithm)
		if err != nil {
			return nil, fmt.Errorf("surrogate: model %d: %w", i, err)
		}
		pl, err := cluster.ParsePlacement(tm.Placement)
		if err != nil {
			return nil, fmt.Errorf("surrogate: model %d: %w", i, err)
		}
		k := len(tm.Ns)
		if k < 2 || len(tm.LnCompute) != k || len(tm.LnComm) != k {
			return nil, fmt.Errorf("surrogate: model %d (%s/%s/r%d): %d knots, %d/%d targets",
				i, tm.Algorithm, tm.Placement, tm.Ranks, k, len(tm.LnCompute), len(tm.LnComm))
		}
		xs := make([]float64, k)
		for j, n := range tm.Ns {
			if n <= 0 || (j > 0 && n <= tm.Ns[j-1]) {
				return nil, fmt.Errorf("surrogate: model %d: knot orders not strictly increasing at %d", i, j)
			}
			xs[j] = math.Log(float64(n))
		}
		key := modelKey{alg: alg, pl: pl, overlap: tm.Overlap, ranks: tm.Ranks}
		if _, dup := p.models[key]; dup {
			return nil, fmt.Errorf("surrogate: duplicate model %s/%s/overlap=%t/r%d", tm.Algorithm, tm.Placement, tm.Overlap, tm.Ranks)
		}
		p.models[key] = &model{
			nLo:     tm.Ns[0],
			nHi:     tm.Ns[k-1],
			compute: newSpline(xs, tm.LnCompute),
			comm:    newSpline(xs, tm.LnComm),
		}
	}
	if len(p.models) == 0 {
		return nil, fmt.Errorf("surrogate: table has no models")
	}
	return p, nil
}

var (
	defaultOnce sync.Once
	defaultPred *Predictor
	defaultErr  error
)

// Default returns the predictor loaded from the embedded committed table.
// The table is validated once; every caller shares the same instance.
func Default() (*Predictor, error) {
	defaultOnce.Do(func() { defaultPred, defaultErr = Load(embeddedTable) })
	return defaultPred, defaultErr
}

// Version returns the loaded table's schema version.
func (p *Predictor) Version() string { return p.version }

// Models returns the number of trained (algorithm, placement, overlap,
// ranks) tuples.
func (p *Predictor) Models() int { return len(p.models) }

// eligibleParams reports whether prm matches the trained defaults: the
// default block size, no power cap and no machine-variability jitter.
// Overlap both ways is trained.
func eligibleParams(prm perfmodel.Params) bool {
	norm := prm.Normalized()
	return norm.BlockSize == scalapack.DefaultBlockSize &&
		norm.PowerCapW == 0 &&
		norm.NodeVariability == 0
}

// Predict returns the surrogate's Result for the query, or ok=false when
// the query is outside the envelope (the caller must then take the exact
// path). A true return is a full perfmodel-shaped Result: interpolated
// schedule seconds pushed through the exact power integration.
func (p *Predictor) Predict(alg perfmodel.Algorithm, n int, cfg cluster.Config, prm perfmodel.Params) (perfmodel.Result, bool) {
	if p == nil || n <= 0 || cfg.Ranks <= 0 || cfg.Nodes < 2 {
		return perfmodel.Result{}, false
	}
	if cfg.Spec == nil || *cfg.Spec != *cluster.MarconiA3() {
		return perfmodel.Result{}, false
	}
	if !eligibleParams(prm) {
		return perfmodel.Result{}, false
	}
	norm := prm.Normalized()
	m := p.models[modelKey{alg: alg, pl: cfg.Placement, overlap: norm.Overlap, ranks: cfg.Ranks}]
	if m == nil || n < m.nLo || n > m.nHi {
		return perfmodel.Result{}, false
	}
	x := math.Log(float64(n))
	computeS := exp(m.compute.eval(x)) * feature(alg, n, cfg.Ranks)
	commS := exp(m.comm.eval(x)) * commFeature(alg, n, cfg.Ranks, norm.Overlap)
	return perfmodel.ResultFromTimes(alg, n, cfg, norm, computeS, commS), true
}
