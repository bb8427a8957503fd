// Accelerator device model. The source paper's machine is CPU-only; the
// sparse/iterative workload family ("On the energy efficiency of sparse
// matrix computations on multi-GPU clusters", PAPERS.md) needs nodes that
// can optionally carry accelerators: a device with its own memory
// bandwidth, its own energy domain, and a host↔device transfer edge whose
// cost the solver pays per iteration. Dense solvers and the existing
// paper grid never look at this field, so CPU-only behaviour is
// byte-identical to before.
package cluster

import (
	"fmt"

	"repro/internal/canon"
)

// Device selects the compute device a (sparse) workload runs on.
type Device int

const (
	// DeviceCPU runs kernels on the host cores, exactly like the dense
	// solvers.
	DeviceCPU Device = iota
	// DeviceAccel offloads the memory-bound kernels (SpMV, axpy, dot) to
	// the node's accelerators, paying the host↔device transfer edge.
	DeviceAccel
)

// Devices lists all devices in canonical order.
func Devices() []Device { return []Device{DeviceCPU, DeviceAccel} }

// String implements fmt.Stringer.
func (d Device) String() string {
	switch d {
	case DeviceCPU:
		return "cpu"
	case DeviceAccel:
		return "accel"
	default:
		return fmt.Sprintf("Device(%d)", int(d))
	}
}

// AcceleratorSpec describes the accelerators of one node. The numbers
// parameterise a memory-bound roofline: kernels that stream bytes run at
// MemBandwidthBps instead of the host's DRAM bandwidth, every offloaded
// phase pays the PCIe-style transfer edge, and energy accrues in a
// dedicated RAPL-like domain (rapl.Accel) at ActivePowerW while busy and
// IdlePowerW for the rest of the job.
type AcceleratorSpec struct {
	// PerNode is the accelerator count per node.
	PerNode int
	// MemBandwidthBps is the aggregate device-memory bandwidth of one
	// accelerator in bytes/s.
	MemBandwidthBps float64
	// PeakGFlops is the vendor peak of one accelerator (documentation and
	// sanity checks only).
	PeakGFlops float64
	// ActivePowerW is one accelerator's power at full memory-bandwidth
	// utilisation; IdlePowerW is its floor while the job holds it.
	ActivePowerW float64
	IdlePowerW   float64
	// TransferBps and TransferLatS model the host↔device link: each
	// offloaded transfer costs TransferLatS + bytes/TransferBps.
	TransferBps  float64
	TransferLatS float64
}

// AppendCanonical appends the profile's canonical JSON as part of a sparse
// cell's store identity (see internal/canon): exactly what encoding/json
// emits for it, which internal/core/canon_test.go holds it to field by
// field.
func (a AcceleratorSpec) AppendCanonical(dst []byte) ([]byte, bool) {
	o := canon.Begin(dst)
	o.Int("PerNode", int64(a.PerNode))
	o.Float("MemBandwidthBps", a.MemBandwidthBps)
	o.Float("PeakGFlops", a.PeakGFlops)
	o.Float("ActivePowerW", a.ActivePowerW)
	o.Float("IdlePowerW", a.IdlePowerW)
	o.Float("TransferBps", a.TransferBps)
	o.Float("TransferLatS", a.TransferLatS)
	return o.End()
}

// DefaultAccelerator returns the accelerator profile used by the sparse
// study: a 900 GB/s HBM device (Volta-class) behind a 12 GB/s effective
// PCIe 3 x16 link, 250 W active / 30 W idle, 4 per node.
func DefaultAccelerator() *AcceleratorSpec {
	return &AcceleratorSpec{
		PerNode:         4,
		MemBandwidthBps: 900e9,
		PeakGFlops:      7800,
		ActivePowerW:    250,
		IdlePowerW:      30,
		TransferBps:     12e9,
		// Per-transfer fixed cost: kernel launch + DMA setup + host sync.
		// Dominates small solves — the reason CPU-only placements win them.
		TransferLatS: 50e-6,
	}
}

// MarconiA3Accel returns the Marconi A3 machine with every node carrying
// the default accelerator complement — the heterogeneous half of the
// CPU-vs-accelerator placement space the sparse advisor ranks over.
func MarconiA3Accel() *MachineSpec {
	s := MarconiA3()
	s.Name = "Marconi A3 + accelerators (Volta-class, 4/node)"
	s.Accel = DefaultAccelerator()
	return s
}
