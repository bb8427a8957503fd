package sparse

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/rapl"
)

// The analytic sparse model: virtual time and energy for a CG/BiCGSTAB
// solve at paper scale, on CPU cores or on the node's accelerators. It
// shares the kernel constants with the executable solver (perf.go) and
// the communication/power calibration with the dense analytic engine, so
// its outputs live in the same unit system as every other cell in the
// store.

// ModelVersion stamps the sparse analytic semantics — the iteration
// model, kernel-bandwidth accounting and the accelerator energy domain.
// Bump on any change that alters outputs for identical inputs, so
// persisted sparse cells are never served across model changes.
const ModelVersion = "sparse-analytic/v1"

// ModelResult is one modelled sparse solve.
type ModelResult struct {
	// DurationS is the end-to-end virtual time.
	DurationS float64
	// Iters is the modelled iteration count.
	Iters int
	// EnergyJ is joules per RAPL domain over the whole machine share;
	// accelerated runs charge the rapl.Accel domain too.
	EnergyJ rapl.Energy
	// TotalJ sums EnergyJ (EnergyJ.Total()).
	TotalJ float64
}

// Model predicts a distributed sparse solve on the given configuration
// and device. Accelerated runs require cfg.Spec.Accel (resolve the
// experiment against a machine like cluster.MarconiA3Accel). Power caps
// are not modelled for sparse runs — the kernels are memory-bound and sit
// far below TDP, so a PL1 cap never binds; callers must reject requests
// that combine the two rather than silently ignore the cap.
func Model(alg Algorithm, spec Spec, cfg cluster.Config, device cluster.Device, prm perfmodel.Params) (ModelResult, error) {
	if err := spec.Validate(); err != nil {
		return ModelResult{}, err
	}
	if cfg.Ranks <= 0 || cfg.Ranks > spec.N {
		return ModelResult{}, fmt.Errorf("sparse: %d ranks unusable for order %d", cfg.Ranks, spec.N)
	}
	if prm.PowerCapW > 0 {
		return ModelResult{}, fmt.Errorf("sparse: power caps are not modelled for sparse solves")
	}
	if device == cluster.DeviceAccel && (cfg.Spec == nil || cfg.Spec.Accel == nil) {
		return ModelResult{}, fmt.Errorf("sparse: device accel requires a machine with accelerators (got %s)", specName(cfg.Spec))
	}
	cost := mpi.DefaultCostModel()
	sh := shapeOf(alg)
	iters := EstIters(alg, spec.Cond, spec.N)

	rowsPerRank := float64(spec.N) / float64(cfg.Ranks)
	nnzPerRank := spec.EstNNZ() / float64(cfg.Ranks)
	spmvBytes := nnzPerRank * DramBytesPerNNZ
	vecBytes := float64(sh.vecBytes * rowsPerRank)

	// Halo shape: neighbour count and exchanged doubles per rank per
	// sweep. Banded blocks touch at most the adjacent blocks' Band rows
	// on each side; random patterns couple a rank to everyone, with the
	// expected external-column count from the complement probability.
	var peers, haloElems float64
	switch spec.Kind {
	case Banded:
		peers = 2
		if float64(cfg.Ranks-1) < peers {
			peers = float64(cfg.Ranks - 1)
		}
		haloElems = math.Min(2*float64(spec.Band), float64(spec.N)-rowsPerRank)
	default:
		// E[external cols] = (n − rows)·(1 − (1−density)^rows).
		hit := -math.Expm1(rowsPerRank * math.Log1p(-spec.Density))
		haloElems = (float64(spec.N) - rowsPerRank) * hit
		peers = math.Min(float64(cfg.Ranks-1), haloElems)
	}
	haloBytes := haloElems * mpi.Float64Bytes
	intra := cfg.Nodes <= 1
	haloTime := float64(peers*(cost.SendOverhead+cost.RecvOverhead)) + cost.Wire(intra, haloBytes)
	dotTime := float64(float64(sh.dots) * cost.AllreduceTime(cfg.Ranks, mpi.Float64Bytes))

	accel := cfg.Spec.Accel
	var computeS, exposedComm, accelOverheadS float64
	if device == cluster.DeviceAccel {
		// Each rank drives an equal share of the node's accelerator
		// memory bandwidth; every sweep ships the halo over the host link
		// and each allreduce syncs a scalar across it.
		perRankBW := float64(accel.PerNode) * accel.MemBandwidthBps / float64(cfg.RanksPerNode)
		computeS = float64(iters) * (float64(float64(sh.spmvs)*spmvBytes) + vecBytes) / perRankBW
		accelOverheadS = float64(iters) * (float64(float64(sh.spmvs)*(accel.TransferLatS+haloBytes/accel.TransferBps)) +
			float64(float64(sh.dots)*2*accel.TransferLatS))
	} else {
		computeS = float64(iters) * (float64(float64(sh.spmvs)*spmvBytes) + vecBytes) / HostStreamBps
	}
	exposedComm = float64(float64(iters)*(float64(float64(sh.spmvs)*haloTime)+dotTime)) + accelOverheadS
	duration := computeS + exposedComm

	// Energy integrates like the dense model's (perfmodel.SocketEnergy):
	// every active core is busy for the whole run (kernels at the sparse
	// activity factor on CPU, MPI busy-poll at nominal; a host core
	// driving an accelerator polls the device at nominal for the whole
	// duration). Host DRAM traffic is the kernels' streamed bytes on CPU,
	// only the staged halo/transfer bytes when the kernels live on the
	// device.
	hostKernelS := computeS
	rankBytes := float64(iters) * (float64(float64(sh.spmvs)*spmvBytes) + vecBytes)
	if device == cluster.DeviceAccel {
		hostKernelS = 0 // kernels run on the device; hosts poll
		rankBytes = float64(iters) * float64(sh.spmvs) * haloBytes
	}
	var energy rapl.Energy
	perfmodel.SocketEnergy(&energy, cfg, duration, hostKernelS, CoreActivity, rankBytes, 1, 0)
	if device == cluster.DeviceAccel {
		perDev := float64(accel.IdlePowerW*(duration-computeS)) + float64(accel.ActivePowerW*computeS)
		energy[rapl.Accel] = float64(cfg.Nodes) * float64(accel.PerNode) * perDev
	}
	return ModelResult{
		DurationS: duration,
		Iters:     iters,
		EnergyJ:   energy,
		TotalJ:    energy.Total(),
	}, nil
}

func specName(s *cluster.MachineSpec) string {
	if s == nil {
		return "nil spec"
	}
	return s.Name
}
