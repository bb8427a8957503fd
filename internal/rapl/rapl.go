// Package rapl simulates Intel's Running Average Power Limit interface for
// one node: the non-architectural Model Specific Registers that expose
// per-package and per-DRAM energy counters and the unit register that
// scales them.
//
// The simulation reproduces the properties the paper's monitoring stack
// depends on (§2.3):
//
//   - energy counters are 32-bit and wrap;
//   - raw counter values are expressed in energy-status units read from
//     MSR_RAPL_POWER_UNIT (1/2^ESU joules, ESU = 14 ⇒ ~61 µJ);
//   - counters update approximately once a millisecond, with per-package
//     jitter, so two reads less than a millisecond apart may see the same
//     value;
//   - MSR access requires the (simulated) msr driver to be enabled and
//     readable, otherwise reads fail the way /dev/cpu/*/msr does.
//
// Energy itself comes from the additive power model in internal/power,
// driven by per-rank activity accounting over virtual time.
package rapl

import (
	"fmt"
	"math"

	"repro/internal/power"
)

// MSR addresses (Intel SDM, server RAPL).
const (
	MSRRaplPowerUnit    = 0x606
	MSRPkgEnergyStatus  = 0x611
	MSRDramEnergyStatus = 0x619
	MSRPP0EnergyStatus  = 0x639
)

// ESU is the simulated energy-status-unit exponent: raw counter units are
// 1/2^ESU joules.
const ESU = 14

// EnergyUnit is the joule value of one raw counter unit.
const EnergyUnit = 1.0 / (1 << ESU)

// counterUpdatePeriod is the nominal RAPL refresh interval (seconds).
const counterUpdatePeriod = 1e-3

// Domain identifies one energy measurement domain of a node.
type Domain int

// The four domains the paper monitors (§4: "CPU packages 0 and 1, as well
// as DRAM 0 and 1"), plus the PP0 (core) sub-domains.
const (
	PKG0 Domain = iota
	PKG1
	DRAM0
	DRAM1
	PP00
	PP01
	// Accel is the node-level accelerator energy domain (NVML-style, one
	// aggregate counter for the node's accelerators). It is analytic-only:
	// like the PP0 sub-domains it is excluded from Domains(), so dense
	// measurements and their stored bytes never see it; the sparse model
	// (internal/sparse) charges it directly.
	Accel
	numDomains
)

// Domains lists the externally meaningful domains in display order.
func Domains() []Domain { return []Domain{PKG0, PKG1, DRAM0, DRAM1} }

// String implements fmt.Stringer using the paper's naming.
func (d Domain) String() string {
	switch d {
	case PKG0:
		return "PACKAGE_ENERGY:PACKAGE0"
	case PKG1:
		return "PACKAGE_ENERGY:PACKAGE1"
	case DRAM0:
		return "DRAM_ENERGY:PACKAGE0"
	case DRAM1:
		return "DRAM_ENERGY:PACKAGE1"
	case PP00:
		return "PP0_ENERGY:PACKAGE0"
	case PP01:
		return "PP0_ENERGY:PACKAGE1"
	case Accel:
		return "ACCEL_ENERGY:NODE"
	default:
		return fmt.Sprintf("Domain(%d)", int(d))
	}
}

// Socket returns the package index a domain belongs to. The node-level
// Accel domain is conventionally attributed to socket 0 (the PCIe root
// complex side); it never appears in the per-socket MSR surface.
func (d Domain) Socket() int {
	switch d {
	case PKG0, DRAM0, PP00, Accel:
		return 0
	default:
		return 1
	}
}

// socketState accumulates the activity that determines a socket's energy.
type socketState struct {
	busyCoreSeconds float64 // Σ over ranks of virtual busy time
	bytes           float64 // memory traffic attributed to this socket
}

// Node simulates the RAPL MSRs of one two-socket node.
type Node struct {
	cal power.Calibration
	// now is the node's view of virtual time, in seconds since job start.
	now     float64
	sockets [2]socketState
	// snapshots hold the counter values visible through the MSRs; they
	// refresh when virtual time crosses an update boundary, modelling the
	// ~1 ms counter granularity. Because the simulation accounts activity
	// in coarse retroactive lumps (a rank charges a whole compute call at
	// once), fresh accounting also marks the snapshot dirty so the next
	// time advance refreshes it — otherwise a reading could miss
	// arbitrarily much just-charged energy, which real hardware's
	// continuous integration never does.
	snapshotTime [2]float64
	snapshot     [numDomains]uint32
	dirty        [2]bool
	// driverEnabled gates MSR access like the Linux msr module.
	driverEnabled bool
	nodeID        int
}

// NewNode returns a node with zeroed counters and the msr driver enabled.
func NewNode(id int, cal power.Calibration) (*Node, error) {
	if err := cal.Validate(); err != nil {
		return nil, err
	}
	n := &Node{cal: cal, driverEnabled: true, nodeID: id}
	n.refresh(0)
	n.refresh(1)
	return n, nil
}

// SetDriverEnabled simulates loading/unloading the msr kernel module.
func (n *Node) SetDriverEnabled(on bool) { n.driverEnabled = on }

// AccountBusy adds coreSeconds of rank activity to a socket. Negative
// accounting is rejected.
func (n *Node) AccountBusy(socket int, coreSeconds float64) error {
	if socket < 0 || socket > 1 {
		return fmt.Errorf("rapl: socket %d out of range", socket)
	}
	if coreSeconds < 0 || math.IsNaN(coreSeconds) {
		return fmt.Errorf("rapl: invalid busy time %g", coreSeconds)
	}
	n.sockets[socket].busyCoreSeconds += coreSeconds
	n.dirty[socket] = true
	return nil
}

// AccountBytes attributes memory traffic to a socket's DRAM domain.
func (n *Node) AccountBytes(socket int, bytes float64) error {
	if socket < 0 || socket > 1 {
		return fmt.Errorf("rapl: socket %d out of range", socket)
	}
	if bytes < 0 || math.IsNaN(bytes) {
		return fmt.Errorf("rapl: invalid byte count %g", bytes)
	}
	n.sockets[socket].bytes += bytes
	n.dirty[socket] = true
	return nil
}

// SetTime advances the node's virtual clock. Time must be monotone; the
// counter snapshots refresh when an update period has elapsed since the
// previous refresh of that package (with deterministic per-package jitter).
func (n *Node) SetTime(t float64) error {
	if t < n.now {
		return fmt.Errorf("rapl: time went backwards: %g < %g", t, n.now)
	}
	n.now = t
	for s := 0; s < 2; s++ {
		if t-n.snapshotTime[s] >= n.updatePeriod(s) || (n.dirty[s] && t > n.snapshotTime[s]) {
			n.refresh(s)
		}
	}
	return nil
}

// updatePeriod returns the jittered refresh interval of a package: the
// nominal 1 ms skewed by up to ±10% deterministically per (node, socket).
func (n *Node) updatePeriod(socket int) float64 {
	h := uint64(n.nodeID)*2654435761 + uint64(socket)*40503 + 12345
	h ^= h >> 33
	jitter := (float64(h%2001)/1000 - 1) * 0.1 // in [-0.1, +0.1]
	return counterUpdatePeriod * (1 + jitter)
}

// refresh snapshots the raw counters of one package at the current time.
func (n *Node) refresh(socket int) {
	n.snapshotTime[socket] = n.now
	n.dirty[socket] = false
	for _, d := range []Domain{PKG0, PKG1, DRAM0, DRAM1, PP00, PP01} {
		if d.Socket() != socket {
			continue
		}
		j := n.energyJoules(d)
		n.snapshot[d] = uint32(uint64(j/EnergyUnit) & 0xFFFFFFFF)
	}
}

// energyJoules computes the exact accumulated energy of a domain from the
// additive power model.
func (n *Node) energyJoules(d Domain) float64 {
	s := d.Socket()
	st := n.sockets[s]
	switch d {
	case PKG0, PKG1:
		return n.cal.PkgEnergy(n.now, st.busyCoreSeconds, s)
	case DRAM0, DRAM1:
		return n.cal.DramEnergy(n.now, st.bytes)
	case PP00, PP01:
		// PP0 (cores only) excludes the uncore share of idle power; model
		// it as the dynamic core energy plus a quarter of the idle term.
		return n.cal.CoreActive*st.busyCoreSeconds + 0.25*n.cal.PkgIdle*n.now
	default:
		return 0
	}
}

// ExactEnergy exposes the un-quantized model energy for tests and for the
// analytic engine's cross-checks.
func (n *Node) ExactEnergy(d Domain) float64 { return n.energyJoules(d) }

// Now returns the node's current virtual time.
func (n *Node) Now() float64 { return n.now }

// ReadMSR reads a simulated MSR for the given socket. It fails when the
// msr driver is disabled, mirroring EPERM on real systems.
func (n *Node) ReadMSR(socket int, addr uint32) (uint64, error) {
	if !n.driverEnabled {
		return 0, fmt.Errorf("rapl: msr driver disabled (node %d): permission denied", n.nodeID)
	}
	if socket < 0 || socket > 1 {
		return 0, fmt.Errorf("rapl: socket %d out of range", socket)
	}
	if n.dirty[socket] {
		// Energy charged at the very time of the last refresh: without
		// this, whether a read sees it would depend on which charge of
		// that instant happened to arrive first.
		n.refresh(socket)
	}
	switch addr {
	case MSRRaplPowerUnit:
		// Bits 12:8 hold the energy-status-unit exponent (SDM layout);
		// power unit (3:0) and time unit (19:16) use SDM defaults.
		return 0x3<<0 | ESU<<8 | 0xA<<16, nil
	case MSRPkgEnergyStatus:
		return uint64(n.snapshot[PKG0+Domain(socket)]), nil
	case MSRDramEnergyStatus:
		return uint64(n.snapshot[DRAM0+Domain(socket)]), nil
	case MSRPP0EnergyStatus:
		return uint64(n.snapshot[PP00+Domain(socket)]), nil
	default:
		return 0, fmt.Errorf("rapl: unsupported MSR %#x", addr)
	}
}

// CounterDelta computes the energy in joules between two raw 32-bit
// counter readings, handling wrap-around exactly once (the monitoring
// layer reads far more often than the ~100 s wrap horizon at TDP).
func CounterDelta(before, after uint32) float64 {
	return float64(after-before) * EnergyUnit // uint32 arithmetic wraps naturally
}

// WrapHorizon returns the time in seconds after which a domain counter
// wraps at the given sustained power — a documentation aid used by tests
// to show reads are frequent enough.
func WrapHorizon(watts float64) float64 {
	if watts <= 0 {
		return math.Inf(1)
	}
	return float64(math.MaxUint32) * EnergyUnit / watts
}
