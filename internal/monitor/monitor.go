// Package monitor implements the paper's contribution: a white-box,
// modular energy-monitoring framework for MPI linear-system solvers (§4).
//
// The design follows the paper exactly:
//
//   - after MPI_Init, a per-node communicator is created with
//     MPI_Comm_split_type(MPI_COMM_TYPE_SHARED);
//   - the rank with the highest value in each node communicator is
//     designated the monitoring rank;
//   - monitoring starts and stops through a pair of function calls
//     (start_monitoring / end_monitoring in papi_monitoring.h), each
//     preceded by an MPI barrier over the node communicator so the
//     measurements align with the computation of every rank on the node;
//   - the monitoring ranks initialise PAPI, build an event set from the
//     powercap component's event names, and run their share of the solver
//     like every other rank;
//   - end_monitoring stops the counters and writes one human-readable
//     file per processor (file_management), then PAPI is torn down.
//
// The synchronization barriers are the framework's deliberate accuracy/
// overhead trade-off; the bench suite's monitor.overhead_ms quantifies it.
package monitor

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/papi"
)

// Session is one rank's view of the monitoring framework for one run.
type Session struct {
	p *mpi.Proc
	// World is the communicator the job runs on.
	World *mpi.Comm
	// NodeComm groups the ranks sharing this rank's node.
	NodeComm *mpi.Comm
	// IsMonitor marks the designated monitoring rank of the node (the
	// highest rank in NodeComm).
	IsMonitor bool

	lib     *papi.Library
	events  *papi.EventSet
	names   []string
	started bool
}

// Setup performs the communicator split and monitoring-rank designation.
// Every rank of world must call it collectively.
func Setup(p *mpi.Proc, world *mpi.Comm) (*Session, error) {
	nodeComm, err := p.CommSplitTypeShared(world)
	if err != nil {
		return nil, fmt.Errorf("monitor: node split: %w", err)
	}
	me, err := nodeComm.Rank(p)
	if err != nil {
		return nil, err
	}
	// "The process of selecting monitoring ranks involves designating the
	// rank with the highest value on each node as the monitoring rank."
	s := &Session{
		p:         p,
		World:     world,
		NodeComm:  nodeComm,
		IsMonitor: me == nodeComm.Size()-1,
	}
	return s, nil
}

// StartMonitoring synchronises the node and, on the monitoring rank,
// initialises PAPI and starts the powercap event counters
// (start_monitoring in the paper). All ranks of the node must call it.
func (s *Session) StartMonitoring() error {
	if s.started {
		return fmt.Errorf("monitor: already started")
	}
	// Node barrier: measurement start aligns with every local rank.
	if err := s.alignNode(); err != nil {
		return err
	}
	if s.IsMonitor {
		lib, err := papi.Init(papi.Version, s.p.RaplNode())
		if err != nil {
			return fmt.Errorf("monitor: PWCAP_plot_init: %w", err)
		}
		if err := lib.ThreadInit(); err != nil {
			return err
		}
		es, err := lib.CreateEventSet()
		if err != nil {
			return err
		}
		// The event_names array: the full powercap set (§4).
		s.names = papi.DefaultEventNames()
		if err := es.AddNamedEvents(s.names); err != nil {
			return fmt.Errorf("monitor: papi_event_name_to_code: %w", err)
		}
		if err := es.Start(); err != nil { // PAPI_start_AND_time
			return fmt.Errorf("monitor: PAPI_start_AND_time: %w", err)
		}
		s.lib = lib
		s.events = es
	}
	if err := s.p.Fence(s.NodeComm); err != nil {
		return err
	}
	s.started = true
	s.p.MarkInstant("monitor-start")
	// General execution synchronization before the solver phase (Fig. 2).
	return s.p.Barrier(s.World)
}

// NodeReport is the measurement of one node for one monitored phase.
type NodeReport struct {
	Node       int
	ElapsedS   float64
	Events     []string
	Microjoule []int64
}

// TotalJoules sums the package and DRAM energies of the node.
func (r *NodeReport) TotalJoules() float64 {
	var uj int64
	for _, v := range r.Microjoule {
		uj += v
	}
	return float64(uj) / papi.MicrojoulesPerJoule
}

// AvgPowerW is the node's average power over the monitored phase.
func (r *NodeReport) AvgPowerW() float64 {
	if r.ElapsedS <= 0 {
		return 0
	}
	return r.TotalJoules() / r.ElapsedS
}

// StopMonitoring synchronises the node, stops the counters on the
// monitoring rank and tears PAPI down (end_monitoring + PAPI_term). It
// returns the node's report on the monitoring rank and nil elsewhere.
// All ranks of the node must call it.
func (s *Session) StopMonitoring() (*NodeReport, error) {
	if !s.started {
		return nil, fmt.Errorf("monitor: not started")
	}
	// "Before stopping the whole monitoring, ranks that run on the same
	// node are synchronized to the MPI_Barrier()."
	if err := s.alignNode(); err != nil {
		return nil, err
	}
	s.started = false
	s.p.MarkInstant("monitor-stop")
	var report *NodeReport
	if s.IsMonitor {
		values, elapsed, err := s.events.Stop() // PAPI_stop_AND_time
		if err != nil {
			return nil, fmt.Errorf("monitor: PAPI_stop_AND_time: %w", err)
		}
		node, _ := s.p.Location()
		report = &NodeReport{
			Node:       node,
			ElapsedS:   elapsed,
			Events:     s.names,
			Microjoule: values,
		}
		// PAPI_term: clean up and destroy the event set.
		if err := s.events.Cleanup(); err != nil {
			return nil, err
		}
		if err := s.events.Destroy(); err != nil {
			return nil, err
		}
		s.events = nil
		s.lib = nil
	}
	if err := s.p.Fence(s.NodeComm); err != nil {
		return nil, err
	}
	// Final world synchronization (Fig. 2) before MPI_Finalize.
	if err := s.p.Barrier(s.World); err != nil {
		return nil, err
	}
	return report, nil
}

// alignNode is the node barrier the paper puts before every counter
// access, followed by a fence: the barrier releases a rank before its
// neighbours have charged their wait for it, and the counters must hold
// every joule spent up to the release time — and, with the fence each
// caller places after its access, none spent later — so that a reading is
// a function of virtual time and not of which goroutine ran first.
func (s *Session) alignNode() error {
	if err := s.p.Barrier(s.NodeComm); err != nil {
		return err
	}
	return s.p.Fence(s.NodeComm)
}
