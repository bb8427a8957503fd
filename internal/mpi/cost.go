package mpi

import (
	"math/bits"

	"repro/internal/canon"
)

// CostModel parametrises the virtual-time cost of communication with a
// Hockney-style α–β model, distinguishing intra-node (shared-memory) from
// inter-node (OmniPath) transfers, plus fixed CPU overheads at the
// endpoints (the o of LogP).
//
// Defaults approximate Marconi A3's Intel OmniPath fabric (100 Gbit/s,
// ~1 µs MPI latency) and shared-memory transport within a node.
type CostModel struct {
	// LatencyIntra and LatencyInter are the one-way message latencies in
	// seconds (the α term).
	LatencyIntra float64
	LatencyInter float64
	// BandwidthIntra and BandwidthInter are sustained point-to-point
	// bandwidths in bytes/second (1/β).
	BandwidthIntra float64
	BandwidthInter float64
	// SendOverhead and RecvOverhead are the CPU time consumed at the
	// endpoints per message, independent of size.
	SendOverhead float64
	RecvOverhead float64
}

// AppendCanonical appends the model's canonical JSON as part of a store
// identity (see internal/canon): exactly what encoding/json emits for it,
// which internal/core/canon_test.go holds it to field by field.
func (c CostModel) AppendCanonical(dst []byte) ([]byte, bool) {
	o := canon.Begin(dst)
	o.Float("LatencyIntra", c.LatencyIntra)
	o.Float("LatencyInter", c.LatencyInter)
	o.Float("BandwidthIntra", c.BandwidthIntra)
	o.Float("BandwidthInter", c.BandwidthInter)
	o.Float("SendOverhead", c.SendOverhead)
	o.Float("RecvOverhead", c.RecvOverhead)
	return o.End()
}

// CostModelVersion stamps the *semantics* of the communication cost
// model — which terms exist and how Wire/BcastTime/AllreduceTime compose
// them. The concrete constants travel inside the CostModel value itself,
// so persistent caches keyed on a normalized parameter set already see
// constant changes; this stamp covers changes the numbers cannot express
// (a new term, a different collective algorithm). Bump it whenever such a
// change would make previously stored results stale.
const CostModelVersion = "hockney-logp/v1"

// DefaultCostModel returns the OmniPath-calibrated model used throughout
// the reproduction.
func DefaultCostModel() CostModel {
	return CostModel{
		LatencyIntra:   4e-7,   // 0.4 µs shared memory
		LatencyInter:   2.2e-6, // loaded OmniPath MPI latency
		BandwidthIntra: 8e9,    // 8 GB/s per pair through shared memory
		BandwidthInter: 10e9,   // ~80 Gbit/s effective of the 100 Gbit link
		SendOverhead:   2.5e-7,
		RecvOverhead:   2.5e-7,
	}
}

// Wire returns the in-flight time of a message of size bytes between two
// ranks, which depends on whether they share a node.
func (c CostModel) Wire(sameNode bool, bytes float64) float64 {
	if sameNode {
		return c.LatencyIntra + bytes/c.BandwidthIntra
	}
	return c.LatencyInter + bytes/c.BandwidthInter
}

// TreeDepth returns ceil(log2(p)), the stage count of binomial-tree
// collectives over p ranks.
func TreeDepth(p int) int {
	if p <= 1 {
		return 0
	}
	return bits.Len(uint(p - 1))
}

// BcastTime estimates a binomial-tree broadcast of size bytes over p ranks
// assuming worst-case (inter-node) hops — the analytic engine's collective
// model.
func (c CostModel) BcastTime(p int, bytes float64) float64 {
	return float64(float64(TreeDepth(p)) * (c.SendOverhead + c.Wire(false, bytes) + c.RecvOverhead))
}

// AllreduceTime estimates a small-payload allreduce (reduce+broadcast
// binomial trees) over p ranks.
func (c CostModel) AllreduceTime(p int, bytes float64) float64 {
	return 2 * c.BcastTime(p, bytes)
}

// BarrierTime estimates an MPI barrier over p ranks: ⌈log₂ p⌉ stages of
// one small message each, as in the dissemination barrier MPI libraries
// run. It is the virtual cost of the modelled barrier and does not depend
// on how the host rendezvous behind Barrier is built (comm.go). The
// product is rounded on its own, so a caller's sum cannot fuse with it.
func (c CostModel) BarrierTime(p int) float64 {
	return float64(float64(TreeDepth(p)) * (c.SendOverhead + c.Wire(false, 0) + c.RecvOverhead))
}

// Float64Bytes is the wire size of one float64 element.
const Float64Bytes = 8
