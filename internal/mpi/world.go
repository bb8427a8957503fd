// Package mpi simulates the Message Passing Interface runtime the paper's
// software runs on: a fixed-size world of ranks (goroutines), point-to-point
// messaging, binomial-tree collectives, barriers, and the communicator
// machinery — in particular MPI_Comm_split_type(MPI_COMM_TYPE_SHARED),
// which the monitoring framework uses to group the ranks of each node.
//
// Beyond functional semantics the runtime maintains:
//
//   - a deterministic per-rank *virtual clock* advanced by compute and
//     communication costs (CostModel), so durations are reproducible and
//     can represent cluster-scale executions;
//   - per-world traffic accounting (message count and float64 volume),
//     used to validate the paper's M_IMeP / V_IMeP closed forms;
//   - energy accounting: rank activity is charged to the simulated RAPL
//     node hosting the rank (internal/rapl), which the PAPI layer reads.
//
// The engine is built to execute the paper's full deployments (Table 1,
// up to 1296 ranks): message matching is sparse and lazy (mailbox.go),
// barriers disseminate without a global serialization point (comm.go),
// and the per-send counters are striped, so world setup is O(size) and
// the hot paths contend only on genuinely shared state.
package mpi

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/rapl"
)

// Options configures a World.
type Options struct {
	// Config places ranks on nodes/sockets. When nil, all ranks share one
	// synthetic node on socket 0 (convenient for algorithm-only tests).
	Config *cluster.Config
	// Cost is the communication cost model; zero value means defaults.
	Cost CostModel
	// Calibration is the node power model; zero value means Skylake8160.
	Calibration power.Calibration
	// Fault is the fault-injection plane: a deterministic, seed-driven
	// schedule of message delay/jitter, drops with bounded retransmission,
	// straggler ranks and hard rank crashes (internal/fault). Nil injects
	// nothing and leaves every output byte-identical.
	Fault *fault.Injector
}

// rankLoc is a rank's precomputed placement, resolved once at world
// construction so the per-operation accounting path never re-derives it.
type rankLoc struct {
	node   int32
	socket int32
}

// trafficStripes is the stripe count of the traffic counters (power of
// two). Sends stripe by sender rank, so concurrent senders hit different
// cache lines instead of one global lock.
const trafficStripes = 64

// trafficStripe is one padded stripe of the message/volume counters. The
// padding keeps adjacent stripes out of each other's cache lines.
type trafficStripe struct {
	messages atomic.Int64
	volume   atomic.Int64
	_        [48]byte
}

// nodeLock is a padded mutex so the per-node accounting locks of adjacent
// nodes never share a cache line.
type nodeLock struct {
	sync.Mutex
	_ [56]byte
}

// World is one simulated MPI job.
type World struct {
	size  int
	cost  CostModel
	cfg   *cluster.Config
	loc   []rankLoc
	nodes []*rapl.Node
	// nodeMu serialises accounting into each shared rapl.Node, including
	// its monotone clock.
	nodeMu []nodeLock
	// mail[dst] is the destination rank's sparse matcher; per-(src,dst)
	// streams are created lazily on first use (mailbox.go).
	mail []mailShard

	traffic [trafficStripes]trafficStripe

	comms commRegistry

	// trace records per-rank spans when EnableTracing was called.
	trace *tracer
	// metrics feeds the telemetry registry when EnableMetrics was called.
	metrics *worldMetrics

	// flt is the fault injector (nil injects nothing); fail is the always-
	// present registry of dead ranks (failure.go) — a rank aborting with
	// its own error marks it even without an injector, so peers blocked on
	// the dead rank unblock instead of deadlocking; detect is the virtual
	// failure-detection timeout charged to live ranks.
	flt    *fault.Injector
	fail   *failureBoard
	detect float64
}

type message struct {
	tag      int
	data     []float64
	arriveAt float64 // virtual time the payload lands at the receiver
}

// NewWorld builds a world of size ranks. Construction is O(size): no
// per-pair state is allocated until a pair actually communicates.
func NewWorld(size int, opts Options) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size %d must be positive", size)
	}
	cost := opts.Cost
	if cost == (CostModel{}) {
		cost = DefaultCostModel()
	}
	if err := cost.Validate(); err != nil {
		return nil, err
	}
	cal := opts.Calibration
	if cal == (power.Calibration{}) {
		cal = power.Skylake8160()
	}
	if opts.Config != nil && opts.Config.Ranks != size {
		return nil, fmt.Errorf("mpi: config has %d ranks, world has %d", opts.Config.Ranks, size)
	}
	w := &World{size: size, cost: cost, cfg: opts.Config}
	w.fail = newFailureBoard()
	w.detect = fault.DefaultDetectTimeout
	if opts.Fault != nil {
		if opts.Fault.Size() != size {
			return nil, fmt.Errorf("mpi: fault injector built for %d ranks, world has %d", opts.Fault.Size(), size)
		}
		w.flt = opts.Fault
		w.detect = opts.Fault.DetectTimeout()
	}
	nNodes := 1
	if w.cfg != nil {
		nNodes = w.cfg.Nodes
	}
	w.nodes = make([]*rapl.Node, nNodes)
	w.nodeMu = make([]nodeLock, nNodes)
	for i := range w.nodes {
		n, err := rapl.NewNode(i, cal)
		if err != nil {
			return nil, err
		}
		w.nodes[i] = n
	}
	w.loc = make([]rankLoc, size)
	if w.cfg != nil {
		for r := range w.loc {
			l, err := w.cfg.RankLocation(r)
			if err != nil {
				return nil, fmt.Errorf("mpi: rank %d has no placement: %w", r, err)
			}
			w.loc[r] = rankLoc{node: int32(l.Node), socket: int32(l.Socket)}
		}
	}
	w.mail = make([]mailShard, size)
	return w, nil
}

// Size returns the world size.
func (w *World) Size() int { return w.size }

// Nodes exposes the simulated RAPL nodes (one per cluster node) for the
// monitoring layer and for post-run energy inspection.
func (w *World) Nodes() []*rapl.Node { return w.nodes }

// Node returns the RAPL node hosting a world rank.
func (w *World) Node(rank int) *rapl.Node { return w.nodes[w.nodeOf(rank)] }

// location maps a world rank to (node, socket) through the table resolved
// at construction.
func (w *World) location(rank int) (node, socket int) {
	l := w.loc[rank]
	return int(l.node), int(l.socket)
}

func (w *World) nodeOf(rank int) int { return int(w.loc[rank].node) }

// sameNode reports whether two world ranks share a node.
func (w *World) sameNode(a, b int) bool { return w.loc[a].node == w.loc[b].node }

// countTraffic records one message of n float64 elements sent by rank.
// Counters are striped by sender, so the aggregate is exact while
// concurrent senders stay off each other's cache lines.
func (w *World) countTraffic(rank, elements int) {
	s := &w.traffic[rank&(trafficStripes-1)]
	s.messages.Add(1)
	s.volume.Add(int64(elements))
}

// Traffic returns the total messages and float64 volume exchanged so far.
func (w *World) Traffic() (messages, volume int64) {
	for i := range w.traffic {
		messages += w.traffic[i].messages.Load()
		volume += w.traffic[i].volume.Load()
	}
	return messages, volume
}

// ResetTraffic zeroes the traffic counters (used to separate phases; call
// it at a quiescent point, not concurrently with in-flight sends).
func (w *World) ResetTraffic() {
	for i := range w.traffic {
		w.traffic[i].messages.Store(0)
		w.traffic[i].volume.Store(0)
	}
}

// chargeNode accounts busy core-seconds and memory traffic for a rank and
// advances its node's RAPL clock to the rank's virtual time.
func (w *World) chargeNode(rank int, busySeconds, bytes, clock float64) {
	node, socket := w.location(rank)
	w.nodeMu[node].Lock()
	defer w.nodeMu[node].Unlock()
	n := w.nodes[node]
	if busySeconds > 0 {
		if err := n.AccountBusy(socket, busySeconds); err != nil {
			panic(err) // inputs validated by callers; a failure is a bug
		}
	}
	if bytes > 0 {
		if err := n.AccountBytes(socket, bytes); err != nil {
			panic(err)
		}
	}
	if clock > n.Now() {
		if err := n.SetTime(clock); err != nil {
			panic(err)
		}
	}
	if w.trace != nil {
		// Sample the node's energy counters onto the trace's virtual
		// timeline (throttled to the RAPL refresh period).
		w.trace.sampleLocked(node, n, n.Now())
	}
}

// Run executes body once per rank, concurrently, and blocks until every
// rank returns. A panicking rank is converted into an error naming the
// rank, so a bug in one rank fails the job instead of crashing the test
// binary. A rank that returns an error or panics is marked on the failure
// board, which unblocks peers waiting on it (they get ErrRankFailed
// instead of deadlocking); fault-injected crashes unwind via crashPanic
// and surface the same way. Of the collected errors a root cause (one not
// merely reporting a dead peer) is preferred.
func (w *World) Run(body func(p *Proc) error) error {
	world := newWorldComm(w)
	errs := make(chan error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := &Proc{w: w, rank: rank, world: world, crashAt: math.Inf(1), dilation: 1}
			if f := w.flt; f != nil {
				p.crashAt = f.CrashTime(rank)
				p.dilation = f.Dilation(rank)
			}
			defer func() {
				if rec := recover(); rec != nil {
					if cp, ok := rec.(crashPanic); ok {
						errs <- fmt.Errorf("mpi: rank %d crashed at t=%.9gs: %w", cp.rank, cp.t, ErrRankFailed)
						return
					}
					w.markFailed(rank, p.clock, failAborted)
					errs <- fmt.Errorf("mpi: rank %d panicked: %v", rank, rec)
				}
			}()
			if err := body(p); err != nil {
				w.markFailed(rank, p.clock, failAborted)
				errs <- fmt.Errorf("mpi: rank %d: %w", rank, err)
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	var first error
	for err := range errs {
		if first == nil || (errors.Is(first, ErrRankFailed) && !errors.Is(err, ErrRankFailed)) {
			first = err
		}
	}
	return first
}

// Failed reports whether a rank is dead (crashed or aborted) and the
// virtual time it died.
func (w *World) Failed(rank int) (t float64, dead bool) {
	info, ok := w.fail.get(rank)
	return info.t, ok
}

// FailedRanks returns the dead ranks in ascending order.
func (w *World) FailedRanks() []int {
	w.fail.mu.Lock()
	out := make([]int, 0, len(w.fail.failed))
	for r := range w.fail.failed {
		out = append(out, r)
	}
	w.fail.mu.Unlock()
	sort.Ints(out)
	return out
}

// TotalEnergyJ sums the exact model energy of every monitored RAPL domain
// across all nodes — the job's total energy, including what dead ranks
// consumed before failing.
func (w *World) TotalEnergyJ() float64 {
	var e float64
	for i, n := range w.nodes {
		w.nodeMu[i].Lock()
		for _, d := range rapl.Domains() {
			e += n.ExactEnergy(d)
		}
		w.nodeMu[i].Unlock()
	}
	return e
}

// MaxClock returns the largest virtual time any node observed — the job's
// makespan.
func (w *World) MaxClock() float64 {
	var mx float64
	for i := range w.nodes {
		w.nodeMu[i].Lock()
		if t := w.nodes[i].Now(); t > mx {
			mx = t
		}
		w.nodeMu[i].Unlock()
	}
	return mx
}
