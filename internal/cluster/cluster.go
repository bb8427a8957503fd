// Package cluster models the HPC machine and job placements the paper
// evaluates on: CINECA Marconi A3 nodes (2 × 24-core Intel Xeon 8160
// "Skylake" at 2.10 GHz, 192 GB DDR4) scheduled by Slurm-style block
// placement.
//
// The paper's Table 1 enumerates, for each rank count (144, 576, 1296),
// three layouts: full-load nodes (48 ranks/node split 24+24 across the two
// sockets), half-load on one socket (24 ranks/node, all on socket 0) and
// half-load on two sockets (24 ranks/node, 12+12). This package generates
// those configurations and maps every MPI rank to its node, socket and
// core — the information the power model and monitoring framework need.
package cluster

import (
	"fmt"
)

// MachineSpec describes a homogeneous cluster.
type MachineSpec struct {
	Name           string
	TotalNodes     int
	SocketsPerNode int
	CoresPerSocket int
	// Accel, when non-nil, equips every node with accelerators (see
	// accel.go). The dense solvers and the paper grid ignore it.
	Accel *AcceleratorSpec
}

// CoresPerNode returns the total core count of one node.
func (s *MachineSpec) CoresPerNode() int { return s.SocketsPerNode * s.CoresPerSocket }

// MarconiA3 returns the specification of the CINECA Marconi A3 partition
// used in the paper (§5): 3188 nodes, 2 × 24-core Xeon 8160 @ 2.10 GHz,
// 192 GB DDR4, 3.2 TFlop/s peak per node.
func MarconiA3() *MachineSpec {
	return &MachineSpec{
		Name:           "Marconi A3 (Intel Xeon 8160 Skylake)",
		TotalNodes:     3188,
		SocketsPerNode: 2,
		CoresPerSocket: 24,
	}
}

// Placement selects how ranks are packed onto nodes and sockets.
type Placement int

const (
	// FullLoad packs CoresPerNode ranks per node (48 on Marconi),
	// 24 per socket. The densest, fewest-nodes layout.
	FullLoad Placement = iota
	// HalfLoadOneSocket packs CoresPerSocket ranks per node (24), all
	// pinned to socket 0; socket 1 is nominally idle.
	HalfLoadOneSocket
	// HalfLoadTwoSockets packs CoresPerSocket ranks per node (24), split
	// 12 + 12 across the two sockets.
	HalfLoadTwoSockets
)

// Placements lists all placements in Table 1 order.
func Placements() []Placement {
	return []Placement{FullLoad, HalfLoadOneSocket, HalfLoadTwoSockets}
}

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case FullLoad:
		return "full-load"
	case HalfLoadOneSocket:
		return "half-load-1-socket"
	case HalfLoadTwoSockets:
		return "half-load-2-sockets"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// ParsePlacement is the inverse of Placement.String, for request-driven
// callers (the advisor service) that receive placements as text.
func ParsePlacement(s string) (Placement, error) {
	for _, p := range Placements() {
		if s == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown placement %q (want full-load, half-load-1-socket or half-load-2-sockets)", s)
}

// Config is one resolved job configuration: a rank count placed on a
// machine. It corresponds to one row of the paper's Table 1.
type Config struct {
	Spec         *MachineSpec
	Placement    Placement
	Ranks        int
	Nodes        int
	RanksPerNode int
	// SocketsUsed is the number of sockets hosting ranks on each node.
	SocketsUsed int
	// RanksSocket0 and RanksSocket1 are the per-node rank counts pinned to
	// each socket (the last two columns of Table 1).
	RanksSocket0 int
	RanksSocket1 int
}

// Location identifies where a rank runs.
type Location struct {
	Node   int // node index, 0-based
	Socket int // socket within the node
}

// NewConfig resolves a rank count and placement against a machine.
func NewConfig(ranks int, p Placement, spec *MachineSpec) (Config, error) {
	if spec == nil {
		return Config{}, fmt.Errorf("cluster: nil machine spec")
	}
	if ranks <= 0 {
		return Config{}, fmt.Errorf("cluster: rank count %d must be positive", ranks)
	}
	cfg := Config{Spec: spec, Placement: p, Ranks: ranks}
	switch p {
	case FullLoad:
		cfg.RanksPerNode = spec.CoresPerNode()
		cfg.SocketsUsed = spec.SocketsPerNode
		cfg.RanksSocket0 = spec.CoresPerSocket
		cfg.RanksSocket1 = spec.CoresPerSocket
	case HalfLoadOneSocket:
		cfg.RanksPerNode = spec.CoresPerSocket
		cfg.SocketsUsed = 1
		cfg.RanksSocket0 = spec.CoresPerSocket
		cfg.RanksSocket1 = 0
	case HalfLoadTwoSockets:
		cfg.RanksPerNode = spec.CoresPerSocket
		cfg.SocketsUsed = spec.SocketsPerNode
		cfg.RanksSocket0 = spec.CoresPerSocket / 2
		cfg.RanksSocket1 = spec.CoresPerSocket - spec.CoresPerSocket/2
	default:
		return Config{}, fmt.Errorf("cluster: unknown placement %v", p)
	}
	if ranks%cfg.RanksPerNode != 0 {
		return Config{}, fmt.Errorf("cluster: %d ranks not divisible by %d ranks/node (%v)",
			ranks, cfg.RanksPerNode, p)
	}
	cfg.Nodes = ranks / cfg.RanksPerNode
	if cfg.Nodes > spec.TotalNodes {
		return Config{}, fmt.Errorf("cluster: %d nodes exceed machine size %d", cfg.Nodes, spec.TotalNodes)
	}
	return cfg, nil
}

// RankLocation maps an MPI world rank to its node and socket under
// Slurm-style block placement: ranks fill node 0 first, and within a node
// fill socket 0's allotment before socket 1's.
func (c *Config) RankLocation(rank int) (Location, error) {
	if rank < 0 || rank >= c.Ranks {
		return Location{}, fmt.Errorf("cluster: rank %d out of range [0,%d)", rank, c.Ranks)
	}
	node := rank / c.RanksPerNode
	local := rank % c.RanksPerNode
	if local < c.RanksSocket0 {
		return Location{Node: node, Socket: 0}, nil
	}
	return Location{Node: node, Socket: 1}, nil
}

// ActiveCores returns how many ranks run on the given socket of any node
// (all nodes are identically loaded under block placement).
func (c *Config) ActiveCores(socket int) int {
	switch socket {
	case 0:
		return c.RanksSocket0
	case 1:
		return c.RanksSocket1
	default:
		return 0
	}
}

// Label renders a short human-readable identifier such as
// "144r/3n/48rpn/2s".
func (c *Config) Label() string {
	return fmt.Sprintf("%dr/%dn/%drpn/%ds", c.Ranks, c.Nodes, c.RanksPerNode, c.SocketsUsed)
}

// PaperRankCounts are the strong-scaling rank counts of §5.1; each is a
// perfect square as required by IMe's rank-count constraint
// (144 = 12², 576 = 24², 1296 = 36²).
func PaperRankCounts() []int { return []int{144, 576, 1296} }

// PaperMatrixDims are the four matrix orders tested in §5.1.
func PaperMatrixDims() []int { return []int{8640, 17280, 25920, 34560} }

// Table1 generates the nine configurations of the paper's Table 1 on the
// given machine, in row order (rank count major, placement minor).
func Table1(spec *MachineSpec) ([]Config, error) {
	var out []Config
	for _, ranks := range PaperRankCounts() {
		for _, p := range Placements() {
			cfg, err := NewConfig(ranks, p, spec)
			if err != nil {
				return nil, fmt.Errorf("cluster: table 1 row (%d ranks, %v): %w", ranks, p, err)
			}
			out = append(out, cfg)
		}
	}
	return out, nil
}
