// Package sched is the energy-aware multi-tenant batch scheduler: many
// concurrent jobs on a shared simulated fleet of Marconi A3 nodes. It
// turns the paper's one-job-at-a-time measurements into the system-level
// setting its machine actually runs — a Slurm-managed cluster where
// site-wide energy accounting and a power budget decide what starts
// (the EAR-style fleet view of the CEEC experience report).
//
// The scheduler is a virtual-time discrete-event simulation:
//
//   - a priority + FCFS job queue with EASY backfill: the head job holds
//     a reservation (the earliest instant enough nodes AND power free
//     up), and later jobs may jump it only when they cannot delay it;
//   - per-job placement policy via the advisor stack: each job's
//     feasible (algorithm, placement) shapes are priced by the learned
//     surrogate (in-envelope) or the exact analytic model, and the shape
//     optimising the job's objective is chosen;
//   - a cluster-wide power budget that admission-controls starts using
//     the predicted average draw of running jobs, so the instantaneous
//     fleet power never exceeds the budget;
//   - per-job energy accounting charged from the RAPL-calibrated model,
//     including the wasted energy of crashed attempts;
//   - the fault plane composed in: an MTBF schedule crashes running
//     jobs, which are requeued with Shifted() schedules (the PR-5
//     checkpoint/restart charging rule: virtual time and energy are
//     charged up to the failure).
//
// Determinism is load-bearing: candidate predictions are precomputed on
// the worker pool in index order (grid.Map), the event loop is serial
// with totally ordered events, and every float is accumulated in a fixed
// order — so the same seed and workload produce byte-identical reports,
// accounting and Perfetto timelines at any -j and across process
// restarts resuming from the experiment store.
package sched

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/slurm"
	"repro/internal/store"
	"repro/internal/surrogate"
	"repro/internal/telemetry"
)

// Policy selects the scheduling discipline.
type Policy int

const (
	// EnergyAware is the full scheduler: advisor-chosen shapes per the
	// job's objective, EASY backfill, power-budget admission control.
	EnergyAware Policy = iota
	// FCFSBaseline is the energy-oblivious yardstick: every job takes
	// its fastest shape, the queue is plain first-come-first-served
	// (no backfill), objectives are ignored. The power budget — a site
	// constraint, not a policy choice — still gates starts when set.
	FCFSBaseline
)

func (p Policy) String() string {
	if p == FCFSBaseline {
		return "fcfs"
	}
	return "energy-aware"
}

// ParsePolicy is the inverse of Policy.String.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "energy-aware":
		return EnergyAware, nil
	case "fcfs":
		return FCFSBaseline, nil
	}
	return 0, fmt.Errorf("sched: unknown policy %q (want energy-aware or fcfs)", s)
}

// Config sizes the simulated fleet and selects the policy. The zero
// value schedules the full Marconi A3 fleet, energy-aware, unbudgeted,
// fault-free.
type Config struct {
	// Nodes is the fleet size (default: the full Marconi A3, 3188).
	Nodes int
	// PowerBudgetW caps the instantaneous fleet power (sum of running
	// jobs' predicted average draw). <= 0 means unlimited.
	PowerBudgetW float64
	// Policy selects energy-aware scheduling or the FCFS baseline.
	Policy Policy
	// MTBF enables the fault plane: mean time between rank crashes
	// within each running job's world, in virtual seconds (the PR-5
	// resilience semantics). 0 disables crashes.
	MTBF float64
	// FaultSeed drives the per-job crash schedules (with Workload.Seed
	// fixed, varying FaultSeed varies only the faults).
	FaultSeed int64
	// MaxRequeues bounds crash-driven requeues per job (default 32).
	MaxRequeues int
	// Workers is the candidate-prediction worker budget (default
	// GOMAXPROCS). It affects wall time only, never the schedule.
	Workers int
	// Surrogate, when non-nil, prices in-envelope candidates in O(µs).
	Surrogate *surrogate.Predictor
	// Store, when non-nil, memoizes exact candidate predictions in the
	// experiment store: a restarted fleet resumes them for free and
	// byte-identically.
	Store *store.Store
	// Registry, when non-nil, receives fleet gauges and counters.
	Registry *telemetry.Registry
	// Trace builds the Perfetto fleet timeline (one track per node).
	Trace bool
}

// Outcome is one simulated fleet execution.
type Outcome struct {
	Report *Report
	// Trace is the per-node fleet timeline (nil unless Config.Trace).
	Trace *telemetry.Trace
	// StoreHits/StoreComputed count the exact-model candidate predictions
	// served from the experiment store vs computed (and, with a store,
	// appended to it). They live outside the Report so a store-resuming
	// rerun stays byte-identical.
	StoreHits     int
	StoreComputed int
}

// jobState tracks one job through the event loop.
type jobState struct {
	parsedJob
	idx      int
	cand     candidate
	queueS   float64 // current queue-entry time (submit, or requeue after crash)
	startS   float64 // first attempt start
	attStart float64 // current attempt start
	endS     float64
	energyJ  float64
	wastedJ  float64
	attempts int
	crashes  int
	started  bool
	done     bool
	failed   bool
	curCrash bool
	curEndS  float64 // scheduled end of the current attempt
	inj      *fault.Injector
	alloc    *slurm.Allocation
	backfill bool
}

// attemptRec feeds the per-node Perfetto timeline.
type attemptRec struct {
	jobIdx  int
	attempt int
	startS  float64
	endS    float64
	crashed bool
	nodes   []int
}

// event kinds: attempt ends free resources before same-instant arrivals
// queue, so a completion's nodes are visible to a job submitted at the
// exact same virtual instant.
const (
	evEnd = iota
	evArrive
)

type event struct {
	t    float64
	kind int
	job  int
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].job < h[j].job
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// sim is the event-loop state.
type sim struct {
	cfg       Config
	pred      *predictor
	jobs      []*jobState
	fleet     *slurm.Scheduler
	events    eventHeap
	queue     []*jobState
	running   map[int]*jobState // idx -> running job
	attempts  []attemptRec
	backfills int

	// integrals
	prevT       float64
	busyNodes   int
	nodeSeconds float64
	strandedJs  float64 // ∫(budget - power)dt while jobs queued
	peakPowerW  float64
	series      []PowerPoint
}

// Simulate runs the workload to completion and returns the fleet report
// (and timeline). It is a pure function of (cfg minus Workers/Registry/
// Trace, workload): same inputs, byte-identical outputs.
func Simulate(cfg Config, w Workload) (*Outcome, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = cluster.MarconiA3().TotalNodes
	}
	if cfg.MaxRequeues <= 0 {
		cfg.MaxRequeues = 32
	}
	if len(w.Jobs) == 0 {
		return nil, fmt.Errorf("sched: empty workload")
	}

	// Parse and validate every job up front.
	parsed := make([]parsedJob, len(w.Jobs))
	for i, spec := range w.Jobs {
		p, err := parseJob(i, spec)
		if err != nil {
			return nil, err
		}
		parsed[i] = p
	}

	// Price every job's candidate shapes on the worker pool. Results
	// come back in index order regardless of -j.
	pred := newPredictor(cfg.Surrogate, cfg.Store)
	cands, err := predictAll(grid.New(cfg.Workers), pred, parsed, cfg.Nodes, cfg.PowerBudgetW)
	if err != nil {
		return nil, err
	}

	// The fleet allocator: a Marconi A3 machine resized to the fleet.
	spec := *cluster.MarconiA3()
	spec.TotalNodes = cfg.Nodes
	fleet, err := slurm.NewScheduler(&spec)
	if err != nil {
		return nil, err
	}

	s := &sim{cfg: cfg, pred: pred, fleet: fleet, running: make(map[int]*jobState)}
	for i := range parsed {
		j := &jobState{parsedJob: parsed[i], idx: i, cand: pick(cands[i], parsed[i].obj, cfg.Policy == FCFSBaseline)}
		s.jobs = append(s.jobs, j)
		heap.Push(&s.events, event{t: j.spec.SubmitS, kind: evArrive, job: i})
	}

	// The event loop: drain all events at one instant, then run a
	// scheduling pass at that instant.
	for s.events.Len() > 0 {
		t := s.events[0].t
		s.advanceTo(t)
		for s.events.Len() > 0 && s.events[0].t == t {
			ev := heap.Pop(&s.events).(event)
			j := s.jobs[ev.job]
			switch ev.kind {
			case evArrive:
				j.queueS = t
				s.queue = append(s.queue, j)
			case evEnd:
				if j.curCrash {
					if err := s.crash(j, t); err != nil {
						return nil, err
					}
				} else {
					if err := s.complete(j, t); err != nil {
						return nil, err
					}
				}
			}
		}
		if err := s.schedulePass(t); err != nil {
			return nil, err
		}
		s.recordPower(t)
	}

	return s.outcome(w)
}

// advanceTo integrates the interval [prevT, t): node-seconds for
// utilisation and stranded power (unused budget headroom while jobs
// were waiting).
func (s *sim) advanceTo(t float64) {
	dt := t - s.prevT
	if dt > 0 {
		s.nodeSeconds += float64(s.busyNodes) * dt
		if s.cfg.PowerBudgetW > 0 && len(s.queue) > 0 {
			s.strandedJs += (s.cfg.PowerBudgetW - s.powerSum()) * dt
		}
	}
	s.prevT = t
}

// powerSum is the instantaneous fleet power: the predicted average draw
// of every running job, summed in ascending job order so the float
// accumulation is identical on every run.
func (s *sim) powerSum() float64 {
	idxs := make([]int, 0, len(s.running))
	for i := range s.running {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	var p float64
	for _, i := range idxs {
		p += s.running[i].cand.powerW
	}
	return p
}

// fits reports whether the job can start now: enough idle nodes and
// enough power headroom under the budget.
func (s *sim) fits(j *jobState) bool {
	if j.cand.nodes > s.fleet.FreeNodes() {
		return false
	}
	if s.cfg.PowerBudgetW > 0 && s.powerSum()+j.cand.powerW > s.cfg.PowerBudgetW {
		return false
	}
	return true
}

// queueLess orders the wait queue: higher priority first, then FCFS by
// queue-entry time, then submission order.
func queueLess(a, b *jobState) bool {
	if a.spec.Priority != b.spec.Priority {
		return a.spec.Priority > b.spec.Priority
	}
	if a.queueS != b.queueS {
		return a.queueS < b.queueS
	}
	return a.idx < b.idx
}

// schedulePass starts every job the policy admits at instant t.
func (s *sim) schedulePass(t float64) error {
	sort.Slice(s.queue, func(i, k int) bool { return queueLess(s.queue[i], s.queue[k]) })

	// FCFS prefix: start head jobs while they fit.
	for len(s.queue) > 0 && s.fits(s.queue[0]) {
		if err := s.start(s.queue[0], t, false); err != nil {
			return err
		}
		s.queue = s.queue[1:]
	}
	if len(s.queue) == 0 || s.cfg.Policy == FCFSBaseline {
		return nil
	}

	// EASY backfill: the blocked head holds a reservation at the
	// earliest instant enough nodes AND power free up; later jobs may
	// start now only if they cannot delay it — they finish before the
	// reservation, or they fit inside the slack that remains at the
	// reservation even with the head job started.
	head := s.queue[0]
	shadowT, extraNodes, extraPowerW := s.reservation(head, t)
	for i := 1; i < len(s.queue); {
		j := s.queue[i]
		if !s.fits(j) {
			i++
			continue
		}
		endJ := t + s.attemptSpan(j)
		finishesFirst := endJ <= shadowT
		fitsSlack := j.cand.nodes <= extraNodes &&
			(s.cfg.PowerBudgetW <= 0 || j.cand.powerW <= extraPowerW)
		if !finishesFirst && !fitsSlack {
			i++
			continue
		}
		if err := s.start(j, t, true); err != nil {
			return err
		}
		if !finishesFirst {
			extraNodes -= j.cand.nodes
			extraPowerW -= j.cand.powerW
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
	}
	return nil
}

// reservation computes the head job's shadow time: walk running jobs'
// end events in time order, accumulating freed nodes and power, until
// the head fits. Returns the shadow instant and the node/power slack
// left at that instant after reserving the head.
func (s *sim) reservation(head *jobState, t float64) (shadowT float64, extraNodes int, extraPowerW float64) {
	type rel struct {
		endS   float64
		idx    int
		nodes  int
		powerW float64
	}
	rels := make([]rel, 0, len(s.running))
	for i, j := range s.running {
		rels = append(rels, rel{endS: j.curEndS, idx: i, nodes: j.cand.nodes, powerW: j.cand.powerW})
	}
	sort.Slice(rels, func(a, b int) bool {
		if rels[a].endS != rels[b].endS {
			return rels[a].endS < rels[b].endS
		}
		return rels[a].idx < rels[b].idx
	})
	avail := s.fleet.FreeNodes()
	pw := s.powerSum()
	for _, r := range rels {
		avail += r.nodes
		pw -= r.powerW
		if avail >= head.cand.nodes && (s.cfg.PowerBudgetW <= 0 || s.cfg.PowerBudgetW-pw >= head.cand.powerW) {
			extraPowerW = s.cfg.PowerBudgetW - pw - head.cand.powerW
			return r.endS, avail - head.cand.nodes, extraPowerW
		}
	}
	// Unreachable when the head was validated feasible on an idle
	// fleet; treat as "no reservation": everything may backfill.
	return inf(), s.cfg.Nodes, s.cfg.PowerBudgetW
}

func inf() float64 { return 1e308 }

// attemptSpan is the virtual length the job's NEXT attempt would run if
// started now: its predicted duration, cut short by the first pending
// crash in its fault schedule.
func (s *sim) attemptSpan(j *jobState) float64 {
	if s.cfg.MTBF <= 0 {
		return j.cand.durationS
	}
	inj := j.inj
	if inj == nil {
		// Not started yet: the schedule it would get on start.
		var err error
		inj, err = s.newInjector(j)
		if err != nil {
			return j.cand.durationS
		}
	}
	if ct := firstCrash(inj); ct > 0 && ct < j.cand.durationS {
		return ct
	}
	return j.cand.durationS
}

// newInjector builds the job's fault schedule: seeded from the
// workload's fault seed and the job index, over the job's world size,
// bounded by its predicted duration.
func (s *sim) newInjector(j *jobState) (*fault.Injector, error) {
	return fault.New(fault.Config{
		Seed:    jobFaultSeed(s.cfg.FaultSeed, j.idx),
		MTBF:    s.cfg.MTBF,
		Horizon: j.cand.durationS,
	}, j.spec.Ranks)
}

// firstCrash is the earliest crash instant in the schedule (0 = none).
func firstCrash(inj *fault.Injector) float64 {
	first := 0.0
	for _, ev := range inj.Events() {
		if first == 0 || ev.Time < first {
			first = ev.Time
		}
	}
	return first
}

// start grants nodes and schedules the attempt's end (or crash).
func (s *sim) start(j *jobState, t float64, backfilled bool) error {
	alloc, err := s.fleet.Submit(slurm.JobSpec{Name: j.spec.Name, Ranks: j.spec.Ranks, Placement: j.cand.pl})
	if err != nil {
		return fmt.Errorf("sched: job %s: %w", j.spec.Name, err)
	}
	j.alloc = alloc
	j.attempts++
	j.attStart = t
	if !j.started {
		j.started = true
		j.startS = t
		j.backfill = backfilled
	}
	if backfilled {
		s.backfills++
	}
	if s.cfg.MTBF > 0 && j.inj == nil {
		if j.inj, err = s.newInjector(j); err != nil {
			return err
		}
	}
	end := t + j.cand.durationS
	j.curCrash = false
	if j.inj != nil {
		if ct := firstCrash(j.inj); ct > 0 && ct < j.cand.durationS {
			end = t + ct
			j.curCrash = true
		}
	}
	j.curEndS = end
	s.running[j.idx] = j
	s.busyNodes += j.cand.nodes
	if p := s.powerSum(); p > s.peakPowerW {
		s.peakPowerW = p
	}
	heap.Push(&s.events, event{t: end, kind: evEnd, job: j.idx})
	s.attempts = append(s.attempts, attemptRec{
		jobIdx: j.idx, attempt: j.attempts, startS: t, endS: end,
		crashed: j.curCrash, nodes: alloc.Nodes,
	})
	return nil
}

// stop releases the attempt's nodes and charges its energy.
func (s *sim) stop(j *jobState, t float64) error {
	if err := s.fleet.Release(j.alloc.JobID); err != nil {
		return err
	}
	delete(s.running, j.idx)
	s.busyNodes -= j.cand.nodes
	j.energyJ += j.cand.powerW * (t - j.attStart)
	j.alloc = nil
	return nil
}

// complete finishes the job.
func (s *sim) complete(j *jobState, t float64) error {
	if err := s.stop(j, t); err != nil {
		return err
	}
	j.endS = t
	j.done = true
	return nil
}

// crash requeues a crashed attempt with a Shifted() fault schedule: the
// events that fired are dropped, the rest move earlier — the same rule
// checkpoint/restart uses to map one absolute schedule onto successive
// restart segments. The failed attempt's energy is charged in full up
// to the failure (the PR-5 charging rule).
func (s *sim) crash(j *jobState, t float64) error {
	elapsed := t - j.attStart
	wasted := j.cand.powerW * elapsed
	if err := s.stop(j, t); err != nil {
		return err
	}
	j.wastedJ += wasted
	j.crashes++
	var err error
	if j.inj, err = j.inj.Shifted(elapsed); err != nil {
		return fmt.Errorf("sched: job %s: shift fault schedule: %w", j.spec.Name, err)
	}
	if j.attempts > s.cfg.MaxRequeues {
		j.endS = t
		j.failed = true
		return nil
	}
	j.queueS = t
	s.queue = append(s.queue, j)
	return nil
}

// recordPower appends a power-series point when the level changed.
func (s *sim) recordPower(t float64) {
	p := s.powerSum()
	if n := len(s.series); n > 0 && s.series[n-1].TimeS == t {
		s.series[n-1].PowerW = p
		s.series[n-1].NodesBusy = s.busyNodes
		s.series[n-1].Queued = len(s.queue)
		return
	}
	if n := len(s.series); n > 0 && s.series[n-1].PowerW == p &&
		s.series[n-1].NodesBusy == s.busyNodes && s.series[n-1].Queued == len(s.queue) {
		return
	}
	s.series = append(s.series, PowerPoint{TimeS: t, PowerW: p, NodesBusy: s.busyNodes, Queued: len(s.queue)})
}
