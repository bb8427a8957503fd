package mpi

import (
	"strconv"

	"repro/internal/rapl"
	"repro/internal/telemetry"
)

// worldMetrics holds the pre-resolved instruments the runtime's hot paths
// feed. A nil *worldMetrics (the default) disables everything behind a
// single pointer check; with metrics enabled, updates are atomic adds on
// instruments resolved once at EnableMetrics time — no map lookups on the
// message path.
type worldMetrics struct {
	reg *telemetry.Registry

	messages *telemetry.Counter // point-to-point sends (collective stages included)
	bytes    *telemetry.Counter // payload bytes of those sends
	recvs    *telemetry.Counter

	collectives [opSplit + 1]*telemetry.Counter // indexed by opcode
	barriers    *telemetry.Counter

	// Per-rank activity accounting (index = world rank).
	computeS []*telemetry.Counter
	waitS    []*telemetry.Counter

	// Fault-plane accounting (failure.go).
	faultCrashes    *telemetry.Counter // ranks killed by the injector
	faultDetections *telemetry.Counter // ErrRankFailed returns on live ranks

	// lastEnergy[node][domain] is the energy already snapshotted into the
	// rapl counters, so SnapshotEnergyMetrics adds exact deltas.
	lastEnergy [][4]float64
}

// collectiveName maps an opcode to its exposition label.
func collectiveName(op int) string {
	switch op {
	case opBcast:
		return "bcast"
	case opGather:
		return "gather"
	case opAllgather:
		return "allgather"
	case opAllreduce:
		return "allreduce"
	case opSplit:
		return "comm_split"
	default:
		return "unknown"
	}
}

// EnableMetrics switches on metrics collection for the world and returns
// the registry the instrumentation feeds (solvers can register their own
// series on it). Call before Run; idempotent.
// Collection is passive — virtual time, energy and numerics are unchanged.
func (w *World) EnableMetrics() *telemetry.Registry {
	if w.metrics != nil {
		return w.metrics.reg
	}
	reg := telemetry.NewRegistry()
	m := &worldMetrics{reg: reg}
	m.messages = reg.Counter("mpi_messages_total", "point-to-point messages sent (collective tree stages included)")
	m.bytes = reg.Counter("mpi_message_bytes_total", "payload bytes of point-to-point messages")
	m.recvs = reg.Counter("mpi_recvs_total", "messages received")
	for op := opBcast; op <= opSplit; op++ {
		m.collectives[op] = reg.Counter("mpi_collectives_total", "collective operations by type", "op", collectiveName(op))
	}
	m.barriers = reg.Counter("mpi_barriers_total", "barrier synchronisations entered")
	m.faultCrashes = reg.Counter("mpi_fault_crashes_total", "ranks killed by the fault injector")
	m.faultDetections = reg.Counter("mpi_fault_detections_total", "operations that returned ErrRankFailed on live ranks")
	m.computeS = make([]*telemetry.Counter, w.size)
	m.waitS = make([]*telemetry.Counter, w.size)
	for r := 0; r < w.size; r++ {
		rank := strconv.Itoa(r)
		m.computeS[r] = reg.Counter("mpi_compute_seconds_total", "virtual compute seconds by rank", "rank", rank)
		m.waitS[r] = reg.Counter("mpi_wait_seconds_total", "virtual busy-wait seconds by rank", "rank", rank)
	}
	m.lastEnergy = make([][4]float64, len(w.nodes))
	w.metrics = m
	return reg
}

// MetricsRegistry returns the registry EnableMetrics created, or nil when
// metrics are disabled.
func (w *World) MetricsRegistry() *telemetry.Registry {
	if w.metrics == nil {
		return nil
	}
	return w.metrics.reg
}

// Metrics returns the world's registry from a rank's context (nil when
// disabled) so solvers can register their own instruments.
func (p *Proc) Metrics() *telemetry.Registry {
	if p.w.metrics == nil {
		return nil
	}
	return p.w.metrics.reg
}

// SnapshotEnergyMetrics folds the current per-node, per-domain RAPL model
// energy into rapl_energy_joules_total counters — the registry-side
// counterpart of the trace's counter tracks. Safe to call repeatedly (it
// adds exact deltas); call at least once after Run so the exposition
// carries final energies. No-op when metrics are disabled.
func (w *World) SnapshotEnergyMetrics() {
	m := w.metrics
	if m == nil {
		return
	}
	for i, n := range w.nodes {
		node := strconv.Itoa(i)
		w.nodeMu[i].Lock()
		var now [4]float64
		for j, d := range rapl.Domains() {
			now[j] = n.ExactEnergy(d)
		}
		w.nodeMu[i].Unlock()
		for j, d := range rapl.Domains() {
			m.reg.Counter("rapl_energy_joules_total",
				"accumulated RAPL model energy by node and domain",
				"node", node, "domain", d.String()).Add(now[j] - m.lastEnergy[i][j])
			m.lastEnergy[i][j] = now[j]
		}
	}
}
