package perfmodel

import (
	"repro/internal/cluster"
	"repro/internal/ime"
	"repro/internal/power"
	"repro/internal/rapl"
	"repro/internal/scalapack"
)

// energyFor integrates the power model over a modelled run. Every rank is
// busy for the whole duration (computing at the algorithm's activity
// factor, busy-polling MPI at nominal otherwise), so a socket's busy
// core-seconds follow directly from the placement's active-core counts.
// DRAM traffic is the algorithm's bytes-per-flop times the flops executed
// on the socket.
func energyFor(alg Algorithm, n int, cfg cluster.Config, prm Params, duration, computeS float64) rapl.Energy {
	var activity, bytesPerFlop, totalFlops float64
	switch alg {
	case IMe:
		activity = ime.CoreActivity
		bytesPerFlop = ime.DramBytesPerFlop
		totalFlops = ime.TotalFlops(n)
	default:
		activity = scalapack.CoreActivity
		bytesPerFlop = scalapack.DramBytesPerFlop
		totalFlops = scalapack.TotalFlops(n)
	}
	var out rapl.Energy
	SocketEnergy(&out, cfg, duration, computeS, activity, totalFlops/float64(cfg.Ranks), bytesPerFlop, prm.PowerCapW)
	return out
}

// SocketEnergy adds to out the package and DRAM energy of every node of
// cfg over a run of duration seconds: its active cores compute for
// computeS of it at the given activity factor and busy-poll at nominal
// for the rest. Each rank moves rankWork·bytesPerWork DRAM bytes (flops
// times bytes per flop, or bytes times 1). A power cap capW > 0 clamps
// package power at max(capW, idle) — the cap stretched the duration
// (Params.capStretch), so clamped power × longer time is how capping
// trades time for power. The dense and the sparse analytic models both
// integrate through it, so their joules share one formula.
func SocketEnergy(out *rapl.Energy, cfg cluster.Config, duration, computeS, activity, rankWork, bytesPerWork, capW float64) {
	cal := power.Skylake8160()
	if computeS > duration {
		computeS = duration
	}
	pollS := duration - computeS
	coresPerSocket := 24
	if cfg.Spec != nil {
		coresPerSocket = cfg.Spec.CoresPerSocket
	}
	for s := 0; s < 2; s++ {
		cores := cfg.ActiveCores(s)
		busy := float64(cores) * (computeS*activity + pollS)
		pkgJ := cal.PkgEnergy(duration, busy, s) +
			cal.UncorePower(cores, coresPerSocket)*duration
		if capW > 0 {
			floor := cal.PkgPower(0, s)
			lim := capW
			if lim < floor {
				lim = floor
			}
			if capped := lim * duration; capped < pkgJ {
				pkgJ = capped
			}
		}
		// DRAM: traffic of the ranks pinned to this socket. The idle
		// socket still refreshes its DIMMs (idle DRAM power applies).
		bytes := rankWork * float64(cores) * bytesPerWork
		dramJ := cal.DramEnergy(duration, bytes)
		out[rapl.PKG0+rapl.Domain(s)] += pkgJ * float64(cfg.Nodes)
		out[rapl.DRAM0+rapl.Domain(s)] += dramJ * float64(cfg.Nodes)
	}
}
