// Package power models the electrical behaviour of one cluster node:
// per-package (socket) CPU power and per-DRAM-domain power, calibrated for
// the Intel Xeon 8160 "Skylake" nodes of Marconi A3.
//
// The model is deliberately *additive* so that energy can be integrated
// exactly from per-rank accounting without a global event queue:
//
//	E_pkg(t)  = P_pkgIdle·t + P_osNoise·t·[socket 0] + P_coreActive·Σ busyCoreSeconds
//	E_dram(t) = P_dramIdle·t + E_perByte·bytesTouched
//
// where busyCoreSeconds sums, over the ranks pinned to the socket, the
// virtual time each rank spent computing or communicating, and
// bytesTouched sums the memory traffic those ranks generated.
//
// Every constant is a modelling decision, not a measurement; see
// Calibration for rationale. Absolute joules therefore differ from the
// paper's, but the relative effects the paper reports (full-load vs
// half-load, socket-0 vs socket-1 imbalance, IMe vs ScaLAPACK power gaps)
// are reproduced because they depend only on ratios of these terms.
package power

import "repro/internal/canon"

// CalibrationVersion stamps the semantics of the additive power model —
// the integration formulas above, not the constants (those travel inside
// the Calibration value and change cache identities by themselves). Bump
// it when the model form changes in a way the numbers cannot express, so
// persistent result stores never serve energies integrated under an older
// model.
const CalibrationVersion = "additive/v1"

// Calibration bundles the electrical constants of one node type. All
// powers are watts, energies joules, traffic bytes.
type Calibration struct {
	// PkgIdle is the power one package draws with zero active ranks but the
	// uncore (mesh, LLC, memory controllers) clocked up, as it is whenever
	// the node hosts a job. Measured Skylake-SP idle-package values with
	// active uncore sit between 40 and 70 W; the paper observed that the
	// nominally idle socket of one-socket placements still consumed 40–50%
	// of the busy one, which pins this constant near 0.4 × TDP.
	PkgIdle float64
	// CoreActive is the incremental power of one core running HPC code at
	// full utilisation (includes its slice of load-dependent uncore power).
	// Chosen so that 24 active cores + idle power ≈ the 150 W TDP.
	CoreActive float64
	// OSNoise is the extra socket-0 power from OS housekeeping, kernel
	// threads and interrupt handling, which Slurm does not migrate away.
	// This is why the paper saw package 0 consistently above package 1.
	OSNoise float64
	// TDP is the package thermal design power (for power-capping and
	// sanity checks).
	TDP float64
	// DramIdle is the background power of one socket's DRAM domain
	// (refresh + PLL for 6 channels of DDR4-2666).
	DramIdle float64
	// DramPerByte is the dynamic DRAM energy per byte moved (J/B).
	// DDR4 activation+IO costs sit around 40–80 pJ/bit ⇒ ~60 pJ/B·8 ≈
	// 0.5 nJ/B at the low end of the literature once channel overheads are
	// included. We use 0.55 nJ/B.
	DramPerByte float64
	// UncoreLoad is the mesh/LLC power at full socket occupancy beyond
	// the linear per-core term. Interconnect utilisation grows roughly
	// quadratically with the number of communicating cores, which is why
	// packing 24 ranks on one socket draws slightly more than 12+12 across
	// two — the "slight differences" the paper saw between its half-load
	// placements (Fig. 3).
	UncoreLoad float64
}

// AppendCanonical appends the calibration's canonical JSON as part of a
// store identity (see internal/canon): exactly what encoding/json emits
// for it, which internal/core/canon_test.go holds it to field by field.
func (c Calibration) AppendCanonical(dst []byte) ([]byte, bool) {
	o := canon.Begin(dst)
	o.Float("PkgIdle", c.PkgIdle)
	o.Float("CoreActive", c.CoreActive)
	o.Float("OSNoise", c.OSNoise)
	o.Float("TDP", c.TDP)
	o.Float("DramIdle", c.DramIdle)
	o.Float("DramPerByte", c.DramPerByte)
	o.Float("UncoreLoad", c.UncoreLoad)
	return o.End()
}

// Skylake8160 returns the calibration used throughout the reproduction.
// The derived full-load package power is PkgIdle + 24·CoreActive ≈ 149 W,
// within 1% of the 150 W TDP of the Xeon 8160.
func Skylake8160() Calibration {
	return Calibration{
		PkgIdle:     66.0,
		CoreActive:  3.4,
		OSNoise:     4.5,
		TDP:         150.0,
		DramIdle:    9.0,
		DramPerByte: 0.55e-9,
		UncoreLoad:  3.0,
	}
}

// PkgPower returns the instantaneous power of a package hosting
// activeCores busy cores. socket selects whether the OS-noise term applies
// (socket 0 hosts the OS).
func (c Calibration) PkgPower(activeCores int, socket int) float64 {
	p := c.PkgIdle + float64(float64(activeCores)*c.CoreActive)
	if socket == 0 {
		p += c.OSNoise
	}
	return p
}

// PkgEnergy integrates package energy over an interval of elapsed seconds
// during which the socket's ranks accumulated busyCoreSeconds of activity.
func (c Calibration) PkgEnergy(elapsed, busyCoreSeconds float64, socket int) float64 {
	e := float64(c.PkgIdle*elapsed) + float64(c.CoreActive*busyCoreSeconds)
	if socket == 0 {
		e += float64(c.OSNoise * elapsed)
	}
	return e
}

// DramEnergy integrates DRAM-domain energy over elapsed seconds during
// which bytes of traffic hit the domain.
func (c Calibration) DramEnergy(elapsed float64, bytes float64) float64 {
	return float64(c.DramIdle*elapsed) + float64(c.DramPerByte*bytes)
}

// UncorePower returns the occupancy-dependent mesh/LLC power of a socket
// running activeCores of coresPerSocket cores: UncoreLoad scaled by the
// square of the occupancy fraction.
func (c Calibration) UncorePower(activeCores, coresPerSocket int) float64 {
	if coresPerSocket <= 0 || activeCores <= 0 {
		return 0
	}
	f := float64(activeCores) / float64(coresPerSocket)
	return c.UncoreLoad * f * f
}

// MaxCapSlowdown bounds how far RAPL frequency scaling can stretch
// execution under a package power cap.
const MaxCapSlowdown = 8.0

// SlowdownUnderCap returns the compute-time stretch factor a package
// suffers when running activeCores busy cores under a PL1 cap of limit
// watts (0 = uncapped). Dynamic power is modelled linear in frequency near
// the base clock, so meeting the cap scales frequency — and compute time —
// by the ratio of dynamic budgets; idle power cannot be capped away, so a
// cap at or below idle clamps at MaxCapSlowdown.
func (c Calibration) SlowdownUnderCap(limit float64, activeCores, socket int) float64 {
	if limit <= 0 {
		return 1
	}
	uncapped := c.PkgPower(activeCores, socket)
	if uncapped <= limit {
		return 1
	}
	idle := c.PkgPower(0, socket)
	budget := limit - idle
	need := uncapped - idle
	if budget <= need/MaxCapSlowdown {
		return MaxCapSlowdown
	}
	return need / budget
}
