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
//     cross-checks compare the synchronous variant only (Overlap=false).
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
	"sync"
	"sync/atomic"

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

// Params configures a model run. The machine is not a parameter: every
// run prices Marconi A3 with mpi.DefaultCostModel and power.Skylake8160,
// the constants the executable engine runs on.
type Params struct {
	// Overlap enables communication/computation overlap (see package
	// comment). The figure benches enable it; the cross-checks against
	// the executable engine compare the synchronous variant only.
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
// its concrete value (the block size; −0 cap is no cap). Two Params
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
// the in-process Normalized identity extended with the machine constants
// and the version stamps of every versioned model input. Within one
// process Normalized alone is a sound cache key (the code cannot change
// under it); across processes and code revisions it is not — the same
// normalized parameters mean different results once a model formula, a
// machine constant, the cost-model semantics, the power-model semantics,
// or a learned coefficient table changes. A content-addressed store
// therefore keys on this struct's canonical JSON: equal spellings of a
// request collapse to one key, and any version bump yields a fresh key
// instead of a stale hit.
type CanonicalIdentity struct {
	// Params is the fully normalized parameter set after the machine's
	// constants (a calibration retune changes the identity by itself).
	Params keyParams `json:"params"`
	// Model is ModelVersion: the analytic schedule-replay semantics.
	Model string `json:"model"`
	// Cost is mpi.CostModelVersion: the communication-model semantics.
	Cost string `json:"cost"`
	// Calibration is power.CalibrationVersion: the power-model semantics.
	Calibration string `json:"calibration"`
}

// keyParams is the params member of a CanonicalIdentity: the machine's
// cost model and calibration, then Params' own fields. encoding/json
// flattens the embedded Params, so the untagged Go field names read as
// one object, as they have in every stored key since the first.
type keyParams struct {
	Cost        mpi.CostModel
	Calibration power.Calibration
	Params
}

// CanonicalIdentity returns the versioned identity of an exact analytic
// evaluation under these params.
func (prm Params) CanonicalIdentity() CanonicalIdentity {
	return CanonicalIdentity{
		Params:      keyParams{Cost: mpi.DefaultCostModel(), Calibration: power.Skylake8160(), Params: prm.Normalized()},
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
	return o.End()
}

// AppendCanonical appends the params' canonical JSON, untagged Go field
// names and all.
func (kp keyParams) AppendCanonical(dst []byte) ([]byte, bool) {
	o := canon.Begin(dst)
	o.Value("Cost", kp.Cost.AppendCanonical)
	o.Value("Calibration", kp.Calibration.AppendCanonical)
	o.Bool("Overlap", kp.Overlap)
	o.Int("BlockSize", int64(kp.BlockSize))
	o.Float("PowerCapW", kp.PowerCapW)
	o.Float("NodeVariability", kp.NodeVariability)
	o.Int("NoiseSeed", kp.NoiseSeed)
	return o.End()
}

func (prm *Params) normalize() {
	if prm.BlockSize <= 0 {
		prm.BlockSize = scalapack.DefaultBlockSize
	}
	if prm.PowerCapW == 0 {
		prm.PowerCapW = 0 // −0 is no cap too: one identity for both
	}
}

// Result is one modelled execution.
type Result struct {
	// DurationS is the modelled makespan; ComputeS and ExposedCommS are
	// its breakdown (per the critical-path rank).
	DurationS    float64
	ComputeS     float64
	ExposedCommS float64

	// Energy per RAPL domain summed over all nodes, in joules.
	EnergyJ rapl.Energy
	// TotalJ sums the four monitored domains (EnergyJ.Total()).
	TotalJ float64
}

// Run models one (algorithm, order, configuration) execution: Replays.Run
// without a memo, replaying the schedule every time.
func Run(alg Algorithm, n int, cfg cluster.Config, prm Params) (Result, error) {
	return (*Replays)(nil).Run(alg, n, cfg, prm)
}

// Run models one execution like the package-level Run, taking the
// schedule replay from the memo when an earlier cell already replayed the
// same schedule. A nil memo replays every time.
func (r *Replays) Run(alg Algorithm, n int, cfg cluster.Config, prm Params) (Result, error) {
	prm.normalize()
	if n <= 0 {
		return Result{}, fmt.Errorf("perfmodel: order %d must be positive", n)
	}
	if cfg.Ranks <= 0 {
		return Result{}, fmt.Errorf("perfmodel: configuration has no ranks")
	}

	t, err := r.replay(schedule{
		alg:        alg,
		n:          n,
		ranks:      cfg.Ranks,
		intra:      cfg.Nodes <= 1, // single-node jobs ride shared memory; multi-node jobs the fabric
		capStretch: prm.capStretch(cfg),
		overlap:    prm.Overlap,
		nb:         prm.BlockSize,
	})
	if err != nil {
		return Result{}, err
	}
	return resultFromTimes(alg, n, cfg, prm, t), nil
}

// ResultFromTimes assembles a full Result — energy integration, jitter,
// totals — from an externally supplied pre-jitter time breakdown, using
// the exact power model. This is the seam the learned surrogate plugs
// into: it predicts the schedule-replay seconds (the O(n) part of Run)
// and delegates the O(1) power integration here, so surrogate energies
// inherit the model's calibration exactly and only carry the time error.
func ResultFromTimes(alg Algorithm, n int, cfg cluster.Config, prm Params, computeS, exposedCommS float64) Result {
	prm.normalize()
	return resultFromTimes(alg, n, cfg, prm, timeBreakdown{compute: computeS, exposedComm: exposedCommS})
}

// capStretch is the factor by which PowerCapW stretches compute via RAPL
// frequency scaling (1 uncapped); the worst-stretched socket of the
// placement governs the makespan. Expects normalized params.
func (prm Params) capStretch(cfg cluster.Config) float64 {
	stretch := 1.0
	if prm.PowerCapW > 0 {
		for s := 0; s < 2; s++ {
			if cores := cfg.ActiveCores(s); cores > 0 {
				if sl := power.Skylake8160().SlowdownUnderCap(prm.PowerCapW, cores, s); sl > stretch {
					stretch = sl
				}
			}
		}
	}
	return stretch
}

// resultFromTimes is the shared tail of Run and ResultFromTimes: machine
// variability jitter, then energy integration over the jittered schedule.
func resultFromTimes(alg Algorithm, n int, cfg cluster.Config, prm Params, t timeBreakdown) Result {
	res := Result{
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

	res.EnergyJ = energyFor(alg, n, cfg, prm, res.DurationS, res.ComputeS)
	for _, d := range rapl.Domains() {
		res.EnergyJ[d] *= fPower
	}
	res.TotalJ = res.EnergyJ.Total()
	return res
}

// timeBreakdown separates the critical path into compute and exposed
// communication seconds.
type timeBreakdown struct {
	compute     float64
	exposedComm float64
}

// schedule is everything a schedule replay reads, and imeTime and
// scalapackTime read nothing else; so it is also the replay's memo key,
// and an input the replay starts to read is an input the key carries.
// Placement and the cap reach a replay only through intra and
// capStretch, and machine variability not at all; all of them reach the
// energy integration (resultFromTimes), which every cell runs, memoized
// or not. The machine's constants are constants, so no key carries them.
type schedule struct {
	alg        Algorithm
	n, ranks   int
	intra      bool    // one node: shared-memory links
	capStretch float64 // Params.capStretch of the placement
	overlap    bool
	nb         int // ScaLAPACK's block size; IMe has none and ignores it
}

// replayed counts schedule replays, memoized or not; the tests read it
// to hold an evaluation to one replay per distinct schedule.
var replayed atomic.Int64

// replay runs the algorithm's O(n) schedule replay.
func (s schedule) replay() (timeBreakdown, error) {
	replayed.Add(1)
	switch s.alg {
	case IMe:
		return imeTime(s)
	case ScaLAPACK:
		return scalapackTime(s)
	default:
		return timeBreakdown{}, fmt.Errorf("perfmodel: unknown algorithm %v", s.alg)
	}
}

// Replays memoizes schedule replays across the cells of one evaluation.
// The paper's figures vary placement and repetition far more than the
// schedule: a placement that leaves the node count and the cap stretch
// alone, or a repetition that only redraws the machine-variability
// noise, changes a cell's energy integration but not its replay. A hit
// returns the breakdown the replay computed, so a memoized cell is
// bit-identical to an unmemoized one. The zero value is ready to use and
// it is safe for concurrent use: each distinct schedule is replayed once,
// and a caller that asks for a schedule in flight waits for it. A memo
// grows with the distinct schedules it sees and is freed with its owner,
// so give one to a bounded, trusted set of cells, not to a process.
type Replays struct {
	mu     sync.Mutex
	landed sync.Cond // broadcast as each replay lands in done; L is &mu
	done   map[schedule]replayEntry
}

// replayEntry is one schedule's replay, in flight until landed.
type replayEntry struct {
	t      timeBreakdown
	err    error
	landed bool
}

// replay returns the schedule's breakdown from the memo, replaying it the
// first time; a nil memo always replays. The memo keeps entries by value,
// so a cold evaluation allocates only as its map grows.
func (r *Replays) replay(s schedule) (timeBreakdown, error) {
	if r == nil {
		return s.replay()
	}
	r.mu.Lock()
	if r.done == nil {
		r.done = make(map[schedule]replayEntry)
		r.landed.L = &r.mu
	}
	e, ok := r.done[s]
	if !ok {
		r.done[s] = e // in flight: later callers wait for it
		r.mu.Unlock()
		e.t, e.err = s.replay()
		e.landed = true
		r.mu.Lock()
		r.done[s] = e
		r.landed.Broadcast()
	}
	for !e.landed {
		r.landed.Wait()
		e = r.done[s]
	}
	r.mu.Unlock()
	return e.t, e.err
}
