package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/ime"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/report"
	"repro/internal/scalapack"
)

// Resilience experiments: what does surviving faults cost each solver?
//
// The paper motivates IMe by its "integrated low-cost multiple fault
// tolerance, which is more efficient than the checkpoint/restart
// technique usually applied in Gaussian Elimination" ([7]) — but never
// prices that claim in joules. RunResilient does: it executes either
// solver under an MTBF-parameterised crash schedule with its native
// recovery mechanism — IMe recovers lost ranks in place from its checksum
// rows; ScaLAPACK replays from periodic in-memory checkpoints
// (internal/ckpt) after the engine aborts the crashed world — verifies
// the recovered solution against the fault-free run, and reports the
// recovery energy on top of the fault-free baseline. Sweeping the MTBF
// locates the crossover where IMe's cheap per-crash recovery beats
// ScaLAPACK's lower baseline energy.

// ResilienceOptions parametrises a resilient run.
type ResilienceOptions struct {
	// MTBF is the mean time between rank crashes across the world, in
	// virtual seconds. The crash horizon is the fault-free makespan, so
	// MTBF values around that makespan yield O(1) crashes per run.
	MTBF float64
	// Seed drives the crash schedule (independent of the input seed).
	Seed int64
	// MaxCrashes bounds the schedule (fault.DefaultMaxCrashes when 0).
	MaxCrashes int
	// CheckpointEvery is ScaLAPACK's checkpoint period in panel steps
	// (default 2).
	CheckpointEvery int
	// Detect is the failure-detection timeout survivors charge before a
	// crashed world aborts (fault.DefaultDetectTimeout when 0). Scale it
	// down with the makespan for small reference runs.
	Detect float64
	// Storage prices ScaLAPACK's checkpoint writes and restore reads
	// (ckpt.DefaultCostModel when zero).
	Storage ckpt.CostModel
}

// ResilientMeasurement is the outcome of one resilient execution. Its
// JSON form is the payload of a stored resilience record: everything
// except the two fields the record's identity already carries.
type ResilientMeasurement struct {
	Experiment Experiment `json:"-"`
	MTBF       float64    `json:"-"`

	// Fault-free reference run with the resilience machinery armed
	// (checksum rows for IMe, periodic checkpoints for ScaLAPACK) but no
	// faults injected.
	BaselineDurationS float64 `json:"baseline_duration_s"`
	BaselineJ         float64 `json:"baseline_j"`

	// Faulted run, summed across restart attempts for checkpoint/restart.
	DurationS float64 `json:"duration_s"`
	TotalJ    float64 `json:"total_j"`

	// Crashes scheduled within the horizon; Recoveries are IMe in-place
	// checksum recoveries, Restarts are ScaLAPACK world restarts.
	Crashes    int `json:"crashes"`
	Recoveries int `json:"recoveries"`
	Restarts   int `json:"restarts"`
	// CheckpointWrites counts per-rank snapshot writes (ScaLAPACK only).
	CheckpointWrites int `json:"checkpoint_writes"`

	// RecoveryJ is the energy the faults cost: TotalJ − BaselineJ.
	RecoveryJ float64 `json:"recovery_j"`
	// MaxRelDiff is the largest relative deviation of the recovered
	// solution from the fault-free one; Residual its relative residual.
	MaxRelDiff float64 `json:"max_rel_diff"`
	Residual   float64 `json:"residual"`
}

// solutionTolerance bounds the acceptable deviation of a recovered
// solution from the fault-free one. ScaLAPACK restarts replay identical
// arithmetic (exact match); IMe's Vandermonde reconstruction re-derives
// lost rows, so recovered runs may differ at rounding level.
const solutionTolerance = 1e-8

// RunResilient executes the experiment's solver under an MTBF crash
// schedule with its native recovery mechanism and verifies the recovered
// solution against the fault-free run.
func RunResilient(e Experiment, ro ResilienceOptions) (ResilientMeasurement, error) {
	cfg, err := e.resolveConfig(cluster.MarconiA3())
	if err != nil {
		return ResilientMeasurement{}, err
	}
	if e.Ranks > e.N {
		return ResilientMeasurement{}, fmt.Errorf("core: %d ranks exceed order %d", e.Ranks, e.N)
	}
	if ro.MTBF < 0 {
		return ResilientMeasurement{}, fmt.Errorf("core: negative MTBF %g", ro.MTBF)
	}
	if ro.CheckpointEvery <= 0 {
		ro.CheckpointEvery = 2
	}
	if ro.Storage == (ckpt.CostModel{}) {
		ro.Storage = ckpt.DefaultCostModel()
	}
	sys := mat.CachedSystem(e.N, e.Seed)
	rm := ResilientMeasurement{Experiment: e, MTBF: ro.MTBF}

	// Fault-free baseline with the resilience machinery armed. Its
	// makespan is the crash horizon; for IMe its trace maps crash times to
	// elimination levels. The baseline's checkpoint store is discarded —
	// restarts must only resume from checkpoints the faulted run wrote.
	baseStore, err := ckpt.NewStore(e.Ranks)
	if err != nil {
		return rm, err
	}
	xref, spans, err := resilientSolve(e, cfg, sys, &rm.BaselineDurationS, &rm.BaselineJ,
		nil, nil, 1, baseStore.Plan(ro.CheckpointEvery, ro.Storage), e.Algorithm == perfmodel.IMe)
	if err != nil {
		return rm, fmt.Errorf("core: fault-free baseline: %w", err)
	}

	// The crash schedule: exponential inter-arrivals over the fault-free
	// makespan. Rank 0 is protected for both solvers (IMe's master owns
	// the irreplaceable auxiliary vector h; keeping the victim sets
	// identical keeps the comparison honest).
	sched := fault.MTBFSchedule(ro.Seed, ro.MTBF, rm.BaselineDurationS, e.Ranks, ro.MaxCrashes, 0)
	rm.Crashes = len(sched.Events)

	var x []float64
	switch e.Algorithm {
	case perfmodel.IMe:
		x, err = runResilientIMe(e, cfg, sys, sched, spans, &rm)
	case perfmodel.ScaLAPACK:
		x, err = runResilientScalapack(e, cfg, sys, sched, ro, &rm)
	default:
		return rm, fmt.Errorf("core: unknown algorithm %v", e.Algorithm)
	}
	if err != nil {
		return rm, err
	}

	rm.RecoveryJ = rm.TotalJ - rm.BaselineJ
	// A crash-free run re-executes a world identical to the baseline, so
	// any nonzero difference here is floating-point summation jitter
	// (energy totals are deterministic to ~1e-9 relative, not bit-exact —
	// goroutine scheduling can reorder the charge accumulation). Snap it
	// to the exact zero the identical workloads imply, so the artifact
	// bytes don't depend on scheduling.
	if rm.Crashes == 0 {
		rm.RecoveryJ = 0
	}
	rm.Residual = mat.RelativeResidual(sys.A, x, sys.B)
	for i := range x {
		d := math.Abs(x[i] - xref[i])
		if m := math.Abs(xref[i]); m > 1 {
			d /= m
		}
		if d > rm.MaxRelDiff {
			rm.MaxRelDiff = d
		}
	}
	if rm.MaxRelDiff > solutionTolerance {
		return rm, fmt.Errorf("core: recovered solution deviates from the fault-free run by %g (tolerance %g)",
			rm.MaxRelDiff, solutionTolerance)
	}
	return rm, nil
}

// resilientSolve runs one world to completion (or failure): the shared
// execution step of the baseline, the IMe fault run and each ScaLAPACK
// restart attempt. It adds the world's makespan and energy to the given
// sums — a crashed world's partial work is charged in full — and returns
// rank 0's solution and, when traced, the recorded spans.
func resilientSolve(e Experiment, cfg cluster.Config, sys *mat.System,
	durS, totalJ *float64, inj *fault.Injector, imeSched *fault.Schedule,
	imeSets int, plan *scalapack.CheckpointPlan, traced bool) ([]float64, []mpi.Span, error) {

	w, err := mpi.NewWorld(e.Ranks, mpi.Options{Config: &cfg, Fault: inj})
	if err != nil {
		return nil, nil, err
	}
	if traced {
		w.EnableTracing()
	}
	var mu sync.Mutex
	var x []float64
	err = w.Run(func(p *mpi.Proc) error {
		var got []float64
		var serr error
		switch e.Algorithm {
		case perfmodel.IMe:
			got, serr = ime.SolveParallel(p, p.World(), sys, ime.ParallelOptions{
				ChargeCosts:    true,
				Checksum:       true,
				ChecksumSets:   imeSets,
				InjectSchedule: imeSched,
			})
		case perfmodel.ScaLAPACK:
			got, serr = scalapack.Pdgesv(p, p.World(), sys, scalapack.ParallelOptions{
				BlockSize:   e.BlockSize,
				ChargeCosts: true,
				Checkpoint:  plan,
			})
		default:
			serr = fmt.Errorf("core: unknown algorithm %v", e.Algorithm)
		}
		if serr != nil {
			return serr
		}
		if p.Rank() == 0 {
			mu.Lock()
			x = got
			mu.Unlock()
		}
		return nil
	})
	*durS += w.MaxClock()
	*totalJ += w.TotalEnergyJ()
	if err != nil {
		return nil, nil, err
	}
	var spans []mpi.Span
	if traced {
		spans = w.Spans()
	}
	return x, spans, nil
}

// runResilientIMe maps the schedule's crash times onto elimination levels
// via the baseline trace and solves once with solver-level injection: a
// crashed rank's table blocks are wiped and rebuilt in place from the
// checksum rows, so the world never aborts.
func runResilientIMe(e Experiment, cfg cluster.Config, sys *mat.System,
	sched fault.Schedule, spans []mpi.Span, rm *ResilientMeasurement) ([]float64, error) {

	levels, err := crashLevels(sched, spans)
	if err != nil {
		return nil, err
	}
	sets := 1
	var events []fault.Event
	for _, lv := range sortedLevelsDesc(levels) {
		ranks := levels[lv]
		if len(ranks) > sets {
			sets = len(ranks)
		}
		events = append(events, fault.Event{Level: lv, Ranks: ranks})
		rm.Recoveries++
	}
	var imeSched *fault.Schedule
	if len(events) > 0 {
		imeSched = &fault.Schedule{Seed: sched.Seed, Events: events}
	}
	x, _, err := resilientSolve(e, cfg, sys, &rm.DurationS, &rm.TotalJ,
		nil, imeSched, sets, nil, false)
	return x, err
}

// crashLevels converts crash times into a level → victim-rank map using
// the master's per-level phase spans from the fault-free trace. A crash
// inside level l's span (or anywhere before it) wipes the victims right
// before level l is processed; crashes after the last level's end cost
// nothing (the factorisation is already complete).
func crashLevels(sched fault.Schedule, spans []mpi.Span) (map[int][]int, error) {
	type window struct {
		level int
		end   float64
	}
	var wins []window
	for _, s := range spans {
		if s.Rank == 0 && s.Kind == "phase" && s.Name == "elimination-level" {
			wins = append(wins, window{level: s.Level, end: s.End})
		}
	}
	if len(wins) == 0 {
		if len(sched.Events) == 0 {
			return nil, nil
		}
		return nil, fmt.Errorf("core: baseline trace has no elimination-level spans")
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].end < wins[j].end })
	levels := make(map[int][]int)
	for _, ev := range sched.Events {
		if ev.Level > 0 {
			continue
		}
		lv := 0
		for _, wn := range wins {
			if ev.Time < wn.end {
				lv = wn.level
				break
			}
		}
		if lv == 0 {
			continue // crash after the last level: nothing left to lose
		}
		for _, r := range ev.Ranks {
			if !containsInt(levels[lv], r) {
				levels[lv] = append(levels[lv], r)
			}
		}
	}
	for _, rs := range levels {
		sort.Ints(rs)
	}
	return levels, nil
}

// sortedLevelsDesc orders levels the way IMe processes them: n … 1.
func sortedLevelsDesc(m map[int][]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(keys)))
	return keys
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// runResilientScalapack executes the attempt loop: each attempt runs
// under the (shifted) crash injector; a crashed world's virtual time and
// energy are charged in full, then the next attempt resumes from the
// newest complete checkpoint generation with the already-fired events
// dropped from the schedule.
func runResilientScalapack(e Experiment, cfg cluster.Config, sys *mat.System,
	sched fault.Schedule, ro ResilienceOptions, rm *ResilientMeasurement) ([]float64, error) {

	store, err := ckpt.NewStore(e.Ranks)
	if err != nil {
		return nil, err
	}
	inj, err := fault.New(fault.Config{Seed: sched.Seed, Events: sched.Events,
		DetectTimeout: ro.Detect}, e.Ranks)
	if err != nil {
		return nil, err
	}
	maxAttempts := len(sched.Events) + 1
	for attempt := 0; attempt < maxAttempts; attempt++ {
		before := rm.DurationS
		// One plan per attempt: the generation every rank of this world
		// resumes from is fixed before any of them runs.
		x, _, err := resilientSolve(e, cfg, sys, &rm.DurationS, &rm.TotalJ,
			inj, nil, 1, store.Plan(ro.CheckpointEvery, ro.Storage), false)
		if err == nil {
			writes, _ := store.Stats()
			rm.CheckpointWrites = writes
			return x, nil
		}
		if !errors.Is(err, mpi.ErrRankFailed) {
			return nil, err
		}
		rm.Restarts++
		// The failed attempt consumed virtual time; surviving events move
		// earlier by exactly that much for the next attempt.
		inj, err = inj.Shifted(rm.DurationS - before)
		if err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("core: restart budget (%d attempts) exhausted under MTBF %g", maxAttempts, ro.MTBF)
}

// ResiliencePoint pairs both solvers' resilient measurements at one MTBF.
type ResiliencePoint struct {
	MTBF      float64
	IMe       ResilientMeasurement
	ScaLAPACK ResilientMeasurement
}

// Winner names the solver with the lower faulted total energy.
func (p ResiliencePoint) Winner() perfmodel.Algorithm {
	if p.IMe.TotalJ < p.ScaLAPACK.TotalJ {
		return perfmodel.IMe
	}
	return perfmodel.ScaLAPACK
}

// resilienceKey names one resilient run in an error.
type resilienceKey struct {
	alg  perfmodel.Algorithm
	mtbf float64
}

func (k resilienceKey) String() string {
	return fmt.Sprintf("resilience %v at mtbf %g", k.alg, k.mtbf)
}

// resilienceStudy runs both solvers at each MTBF, one run at a time,
// under identical crash schedules (same seed, same protected set). The
// experiment's Algorithm field is ignored.
func resilienceStudy(ev *Evaluator, e Experiment, mtbfs []float64, ro ResilienceOptions) ([]ResiliencePoint, error) {
	pts := make([]ResiliencePoint, len(mtbfs))
	for i, mtbf := range mtbfs {
		o := ro
		o.MTBF = mtbf
		run := func(alg perfmodel.Algorithm) (ResilientMeasurement, error) {
			ea := e
			ea.Algorithm = alg
			return evaluate(ev, resilienceKey{alg, mtbf}, resilienceCell{ea, o})
		}
		pts[i].MTBF = mtbf
		var err error
		if pts[i].IMe, err = run(perfmodel.IMe); err != nil {
			return nil, err
		}
		if pts[i].ScaLAPACK, err = run(perfmodel.ScaLAPACK); err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// CrossoverMTBF locates the boundary where the total-energy winner flips
// between adjacent sweep points, returning the bracketing MTBFs. ok is
// false when every point has the same winner.
func CrossoverMTBF(pts []ResiliencePoint) (lo, hi float64, ok bool) {
	for i := 1; i < len(pts); i++ {
		if pts[i-1].Winner() != pts[i].Winner() {
			return pts[i-1].MTBF, pts[i].MTBF, true
		}
	}
	return 0, 0, false
}

// ResilienceSweep is the MTBF sweep of both solvers at the monitored
// reference scale (n=96, 24 ranks, half-load one socket) as a cell set.
// Its cells run one at a time: each executes several solver worlds. A
// positive mtbf narrows the sweep to that single point. Otherwise the
// first cell is the probe, the never-crash ScaLAPACK run whose fault-free
// makespan anchors the sweep, and the points bracket that makespan from
// crash-every-eighth to effectively-never; the probe and the last
// ScaLAPACK point are one cell, so a store serves the second from the
// first. The checkpoint storage latency is scaled to the reference runs'
// millisecond makespans (the production default's 1 ms per snapshot would
// dwarf a 5 ms job).
func ResilienceSweep(mtbf float64, seed int64) CellSet[[]ResiliencePoint] {
	e := Experiment{N: 96, Ranks: 24, Placement: cluster.HalfLoadOneSocket, Seed: 7, BlockSize: 8}
	ro := ResilienceOptions{Seed: seed, Storage: ckpt.CostModel{BandwidthBps: 2e9, LatencyS: 1e-6}}
	probes := 1
	mtbfs := func(base float64) []float64 { return []float64{base / 8, base / 4, base, 4 * base, neverMTBF} }
	if mtbf > 0 {
		probes = 0
		mtbfs = func(float64) []float64 { return []float64{mtbf} }
	}
	return CellSet[[]ResiliencePoint]{
		n: probes + 2*len(mtbfs(0)), // both solvers at every point
		eval: func(ev *Evaluator, _ bool) ([]ResiliencePoint, error) {
			var base float64
			if probes > 0 {
				es, o := e, ro
				es.Algorithm, o.MTBF = perfmodel.ScaLAPACK, neverMTBF
				probe, err := evaluate(ev, resilienceKey{es.Algorithm, o.MTBF}, resilienceCell{es, o})
				if err != nil {
					return nil, err
				}
				base = probe.BaselineDurationS
			}
			return resilienceStudy(ev, e, mtbfs(base), ro)
		},
	}
}

// ResilienceTable renders a ResilienceSweep as a report table — lsbench's
// -faults artifact.
func ResilienceTable(pts []ResiliencePoint) *report.Table {
	title := "Recovery energy vs MTBF (n=96, 24 ranks, seed-driven crash schedule)"
	if lo, hi, ok := CrossoverMTBF(pts); ok {
		title += fmt.Sprintf(" — winner flips between MTBF %.3g s and %.3g s", lo, hi)
	}
	t := &report.Table{
		Title: title,
		Headers: []string{"mtbf_s", "crashes", "ime_total_j", "ime_recovery_j",
			"scalapack_total_j", "scalapack_recovery_j", "restarts", "ckpt_writes", "winner"},
	}
	for _, p := range pts {
		t.Add(p.MTBF, p.IMe.Crashes, p.IMe.TotalJ, p.IMe.RecoveryJ,
			p.ScaLAPACK.TotalJ, p.ScaLAPACK.RecoveryJ, p.ScaLAPACK.Restarts,
			p.ScaLAPACK.CheckpointWrites, p.Winner().String())
	}
	return t
}

// neverMTBF stands in for "no crashes" in sweeps and artifacts: far
// beyond any reference-scale makespan.
const neverMTBF = 1e9

// WriteResilienceTable renders the sweep as the EXPERIMENTS.md-style
// recovery-energy table.
func WriteResilienceTable(w io.Writer, pts []ResiliencePoint) error {
	if _, err := fmt.Fprintf(w, "| MTBF (s) | crashes | IMe total (J) | IMe recovery (J) | ScaLAPACK total (J) | ScaLAPACK recovery (J) | restarts | winner |\n|---:|---:|---:|---:|---:|---:|---:|:---|\n"); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "| %.4g | %d | %.6g | %.4g | %.6g | %.4g | %d | %s |\n",
			p.MTBF, p.IMe.Crashes, p.IMe.TotalJ, p.IMe.RecoveryJ,
			p.ScaLAPACK.TotalJ, p.ScaLAPACK.RecoveryJ, p.ScaLAPACK.Restarts,
			p.Winner()); err != nil {
			return err
		}
	}
	return nil
}
