// Package slurm simulates the batch layer the paper submits through: job
// specifications with node/task/socket directives, allocation of concrete
// nodes from the machine's pool, and job accounting. "The supercomputer
// batch job submission is managed through Slurm, thus the collected energy
// values concern only the processors directly involved in the computation"
// (§5).
//
// Section 5.3 suspects the socket directives were not always honoured
// ("this observation raises some doubts about the effectiveness of the
// Slurm directives"): the scheduler therefore supports a LeakySocketPinning
// mode that lets a fraction of the supposedly pinned ranks land on the
// other socket — reproducing the anomalous socket-1 activity the paper
// measured in its one-socket deployments.
//
// The scheduler is the allocation substrate of the fleet simulator
// (internal/sched): Submit/Release are safe for concurrent use and cost
// O(nodes granted) rather than O(machine), so a fleet event loop can
// churn thousands of jobs over thousands of nodes.
package slurm

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/cluster"
)

// JobSpec mirrors the sbatch directives the paper's jobs use.
type JobSpec struct {
	// Ranks is the total task count (--ntasks).
	Ranks int
	// Placement encodes the ranks-per-node/socket directives
	// (--ntasks-per-node, --ntasks-per-socket).
	Placement cluster.Placement
	// LeakySocketPinning, when non-zero, is the fraction (0..1] of each
	// node's ranks that escape the socket directive and run on the other
	// socket — the §5.3 suspicion made explicit.
	LeakySocketPinning float64
}

// Allocation is a granted job: concrete node IDs plus the resolved
// configuration, possibly perturbed by leaky pinning.
type Allocation struct {
	JobID  int
	Config cluster.Config
	// Nodes are the machine node IDs assigned to this job.
	Nodes []int
}

// Scheduler owns the machine's node pool and grants allocations. All
// methods are safe for concurrent use: the fleet event loop and its
// worker goroutines drive one scheduler from many goroutines.
type Scheduler struct {
	mu      sync.Mutex
	machine *cluster.MachineSpec
	free    nodeSet
	nextJob int
	// running maps job IDs to their allocations for accounting/release.
	running map[int]*Allocation
}

// nodeSet is an ordered set of idle node IDs kept as a bitmap: one bit
// per node, take() pops the k lowest set bits. Grant and release are
// O(nodes touched), not O(machine) — the map+sort structure this
// replaces rebuilt and sorted the full free list on every Submit.
type nodeSet struct {
	words []uint64
	count int
	// first is the lowest word index that may contain a set bit; words
	// below it are known empty, so take() never rescans the allocated
	// prefix of a mostly-busy machine.
	first int
}

func newNodeSet(n int) nodeSet {
	ns := nodeSet{words: make([]uint64, (n+63)/64), count: n}
	for i := range ns.words {
		ns.words[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		ns.words[len(ns.words)-1] = uint64(1)<<r - 1
	}
	return ns
}

// take removes and returns the k lowest set bits. The caller must have
// checked k <= count.
func (ns *nodeSet) take(k int) []int {
	out := make([]int, 0, k)
	w := ns.first
	for len(out) < k {
		for ns.words[w] == 0 {
			w++
		}
		word := ns.words[w]
		for word != 0 && len(out) < k {
			b := bits.TrailingZeros64(word)
			out = append(out, w*64+b)
			word &^= uint64(1) << b
		}
		ns.words[w] = word
	}
	// Every word below w was drained (or already empty) on the way here.
	ns.first = w
	ns.count -= k
	return out
}

// add returns one node ID to the set.
func (ns *nodeSet) add(id int) {
	ns.words[id/64] |= uint64(1) << (id % 64)
	if id/64 < ns.first {
		ns.first = id / 64
	}
	ns.count++
}

// NewScheduler builds a scheduler over an idle machine.
func NewScheduler(machine *cluster.MachineSpec) (*Scheduler, error) {
	if machine == nil || machine.TotalNodes <= 0 {
		return nil, fmt.Errorf("slurm: invalid machine")
	}
	return &Scheduler{
		machine: machine,
		free:    newNodeSet(machine.TotalNodes),
		nextJob: 1,
		running: make(map[int]*Allocation),
	}, nil
}

// FreeNodes returns how many nodes are currently idle.
func (s *Scheduler) FreeNodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.free.count
}

// Submit resolves and grants a job, or fails when the directives are
// inconsistent or the machine lacks idle nodes.
func (s *Scheduler) Submit(spec JobSpec) (*Allocation, error) {
	if spec.LeakySocketPinning < 0 || spec.LeakySocketPinning > 1 {
		return nil, fmt.Errorf("slurm: leaky pinning fraction %g outside [0,1]", spec.LeakySocketPinning)
	}
	cfg, err := cluster.NewConfig(spec.Ranks, spec.Placement, s.machine)
	if err != nil {
		return nil, fmt.Errorf("slurm: %w", err)
	}
	if spec.LeakySocketPinning > 0 {
		leak := int(float64(cfg.RanksPerNode) * spec.LeakySocketPinning)
		cfg = applyLeak(cfg, leak)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cfg.Nodes > s.free.count {
		return nil, fmt.Errorf("slurm: job needs %d nodes, %d idle", cfg.Nodes, s.free.count)
	}
	// Grant the lowest-numbered idle nodes (block allocation, like the
	// paper's contiguous deployments).
	granted := s.free.take(cfg.Nodes)
	alloc := &Allocation{JobID: s.nextJob, Config: cfg, Nodes: granted}
	s.nextJob++
	s.running[alloc.JobID] = alloc
	return alloc, nil
}

// applyLeak moves leak ranks per node from their directed socket to the
// other one, modelling imperfect --ntasks-per-socket enforcement. The
// leak is clamped to the directed socket's population, so at most every
// rank escapes. Balanced two-socket directives (both sockets populated)
// are a deliberate no-op: with ranks already spread over both sockets
// there is no "other" socket for a directed rank to escape to, so the
// configuration is returned unchanged.
func applyLeak(cfg cluster.Config, leak int) cluster.Config {
	if leak <= 0 {
		return cfg
	}
	switch {
	case cfg.RanksSocket1 == 0: // one-socket directive leaks to socket 1
		if leak > cfg.RanksSocket0 {
			leak = cfg.RanksSocket0
		}
		cfg.RanksSocket0 -= leak
		cfg.RanksSocket1 += leak
	case cfg.RanksSocket0 == 0:
		if leak > cfg.RanksSocket1 {
			leak = cfg.RanksSocket1
		}
		cfg.RanksSocket1 -= leak
		cfg.RanksSocket0 += leak
	default:
		// Balanced directives have nothing meaningful to leak.
	}
	return cfg
}

// Release returns a job's nodes to the pool (job completion).
func (s *Scheduler) Release(jobID int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	alloc, ok := s.running[jobID]
	if !ok {
		return fmt.Errorf("slurm: unknown job %d", jobID)
	}
	for _, id := range alloc.Nodes {
		s.free.add(id)
	}
	delete(s.running, jobID)
	return nil
}
