package perfmodel

import (
	"fmt"

	"repro/internal/ime"
	"repro/internal/mpi"
)

// collective is the cost of collectives over one communicator, resolved
// once per (size, link class, schedule) so that pricing a payload inside
// a schedule replay is arithmetic only. Every method keeps the operands,
// order and association of the mpi.CostModel expression it stands for —
// bytes/bw is a division, wire0 is what Wire(intra, 0) returns — so the
// replays are bit-identical to evaluating the cost model per call.
type collective struct {
	p         int
	depth     float64 // mpi.TreeDepth(p): stages of a binomial tree
	perHopCPU float64 // send + receive overhead of one hop
	lat, bw   float64 // latency and bandwidth of the link class
	wire0     float64 // Wire(intra, 0)
	pipelined bool
	head      float64 // depth·(perHopCPU + wire0): a pipelined broadcast's fill time
}

func resolveCollective(cost mpi.CostModel, p int, intra, pipelined bool) collective {
	c := collective{
		p:         p,
		depth:     float64(mpi.TreeDepth(p)),
		perHopCPU: cost.SendOverhead + cost.RecvOverhead,
		lat:       cost.LatencyInter,
		bw:        cost.BandwidthInter,
		wire0:     cost.Wire(intra, 0),
		pipelined: pipelined,
	}
	if intra {
		c.lat, c.bw = cost.LatencyIntra, cost.BandwidthIntra
	}
	c.head = c.depth * (c.perHopCPU + c.wire0)
	return c
}

// storeForward models a binomial-tree broadcast that forwards the whole
// payload hop by hop, as the executable engine does; the non-overlap
// model mirrors it for cross-checking.
func (c collective) storeForward(bytes float64) float64 {
	return c.depth * (c.perHopCPU + (c.lat + bytes/c.bw))
}

// bcast models a broadcast under the communicator's schedule: production
// MPI pipelines large payloads, which the paper-scale (Overlap) model
// uses; otherwise store-and-forward.
func (c collective) bcast(bytes float64) float64 {
	if c.pipelined {
		return c.head + bytes/c.bw
	}
	return c.storeForward(bytes)
}

// allreduce models reduce-to-root plus broadcast (the executable engine's
// allreduce) for a small payload.
func (c collective) allreduce(bytes float64) float64 {
	return 2 * c.storeForward(bytes)
}

// gather models the flat gather to the master used by IMeP's last-row
// collection: slave sends overlap in flight, but the master pays a receive
// overhead per message plus the wire time of the aggregate payload.
func (c collective) gather(totalBytes float64) float64 {
	if c.p <= 1 {
		return 0
	}
	return float64(c.p-1)*c.perHopCPU + c.wire0 + totalBytes/c.bw
}

// imeTime replays the IMeP schedule analytically. Per level l = n…1 the
// executable solver performs an h broadcast, a pivot-row broadcast, the
// fundamental-formula update on the widest block, and a flat gather of the
// modified last-row entries — see ime.SolveParallel. With Overlap, only
// the pivot-row broadcast stays on the critical path (pipelined against
// the update); h and the gather are consumed by no rank's compute.
func imeTime(n, ranks int, prm Params, intra bool, capStretch float64) (timeBreakdown, error) {
	if ranks > n {
		return timeBreakdown{}, fmt.Errorf("perfmodel: %d ranks exceed order %d", ranks, n)
	}
	world := resolveCollective(prm.Cost, ranks, intra, prm.Overlap)
	lo, hi := ime.BlockRange(n, ranks, 0)
	maxRows := hi - lo
	// Neither a broadcast of n entries (h, the initial column, the
	// solution) nor the gather depends on the level.
	nB := world.bcast(float64(n) * mpi.Float64Bytes)
	g := world.gather(float64(n-maxRows) * mpi.Float64Bytes)

	var t timeBreakdown
	// Init: h and initial-column broadcasts.
	t.exposedComm += 2 * nB
	for l := n; l >= 1; l-- {
		comp := ime.LevelFlops(n, l) * float64(maxRows) / float64(n) / ime.EffFlopsPerCore * capStretch
		t.compute += comp
		pivotB := world.bcast(float64(l+1) * mpi.Float64Bytes)
		if prm.Overlap {
			// Pipelined pivot broadcast: exposed only beyond the update.
			if pivotB > comp {
				t.exposedComm += pivotB - comp
			}
			continue
		}
		t.exposedComm += nB + pivotB + g
	}
	// Final solution broadcast.
	t.exposedComm += nB
	return t, nil
}
