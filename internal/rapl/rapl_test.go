package rapl

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/power"
)

func TestUnitRegister(t *testing.T) {
	n := NewNode(0)
	v, err := n.ReadMSR(0, MSRRaplPowerUnit)
	if err != nil {
		t.Fatal(err)
	}
	esu := (v >> 8) & 0x1F
	if esu != ESU {
		t.Fatalf("ESU field = %d, want %d", esu, ESU)
	}
	if got := 1.0 / float64(int(1)<<esu); got != EnergyUnit {
		t.Fatalf("unit mismatch: %g != %g", got, EnergyUnit)
	}
}

func TestIdleEnergyAccumulates(t *testing.T) {
	n := NewNode(0)
	if err := n.SetTime(10); err != nil {
		t.Fatal(err)
	}
	cal := power.Skylake8160()
	wantPkg1 := cal.PkgEnergy(10, 0, 1)
	if got := n.ExactEnergy(PKG1); math.Abs(got-wantPkg1) > 1e-9 {
		t.Fatalf("idle PKG1 energy = %g, want %g", got, wantPkg1)
	}
	// Socket 0 must include OS noise.
	if n.ExactEnergy(PKG0) <= n.ExactEnergy(PKG1) {
		t.Fatal("PKG0 should exceed PKG1 when both idle (OS noise)")
	}
}

func TestBusyAccountingRaisesEnergy(t *testing.T) {
	n := NewNode(0)
	if err := n.AccountBusy(1, 24*5); err != nil {
		t.Fatal(err)
	}
	if err := n.SetTime(5); err != nil {
		t.Fatal(err)
	}
	cal := power.Skylake8160()
	want := cal.PkgEnergy(5, 120, 1)
	if got := n.ExactEnergy(PKG1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("busy PKG1 energy = %g, want %g", got, want)
	}
}

func TestBytesAccountingRaisesDram(t *testing.T) {
	n := NewNode(0)
	if err := n.AccountBytes(0, 1e9); err != nil {
		t.Fatal(err)
	}
	if err := n.SetTime(1); err != nil {
		t.Fatal(err)
	}
	base := n.ExactEnergy(DRAM1) // no traffic on socket 1
	with := n.ExactEnergy(DRAM0)
	if with <= base {
		t.Fatal("DRAM0 with traffic must exceed idle DRAM1")
	}
}

func TestAccountingValidation(t *testing.T) {
	n := NewNode(0)
	if err := n.AccountBusy(2, 1); err == nil {
		t.Error("socket 2 accepted")
	}
	if err := n.AccountBusy(0, -1); err == nil {
		t.Error("negative busy time accepted")
	}
	if err := n.AccountBytes(0, math.NaN()); err == nil {
		t.Error("NaN bytes accepted")
	}
	if err := n.SetTime(5); err != nil {
		t.Fatal(err)
	}
	if err := n.SetTime(4); err == nil {
		t.Error("time allowed to go backwards")
	}
}

func TestCounterGranularity(t *testing.T) {
	// Two reads within the same ~1 ms update window must see the same
	// snapshot even though exact energy advanced.
	n := NewNode(0)
	if err := n.SetTime(1.0); err != nil { // force a refresh
		t.Fatal(err)
	}
	v1, err := n.ReadMSR(0, MSRPkgEnergyStatus)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetTime(1.0 + 1e-5); err != nil { // 10 µs later
		t.Fatal(err)
	}
	v2, err := n.ReadMSR(0, MSRPkgEnergyStatus)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("counter advanced within an update period: %d → %d", v1, v2)
	}
	if err := n.SetTime(1.01); err != nil { // well past the period
		t.Fatal(err)
	}
	v3, err := n.ReadMSR(0, MSRPkgEnergyStatus)
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v1 {
		t.Fatal("counter failed to advance after an update period")
	}
}

// TestReadSeesEveryChargeOfItsInstant: ranks leaving a barrier all charge
// their wait at the same virtual time. The first charge refreshes the
// counter; the ones after it, at that very time, must still be in what a
// read at that time returns, in whatever order they arrived.
func TestReadSeesEveryChargeOfItsInstant(t *testing.T) {
	read := func(order []float64) uint64 {
		n := NewNode(0)
		for _, busy := range order {
			if err := n.AccountBusy(0, busy); err != nil {
				t.Fatal(err)
			}
			if err := n.SetTime(1.0); err != nil {
				t.Fatal(err)
			}
		}
		v, err := n.ReadMSR(0, MSRPkgEnergyStatus)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a, b := read([]float64{0.25, 0.5, 1}), read([]float64{1, 0.5, 0.25})
	if a != b {
		t.Fatalf("the same charges at one instant read %d in one arrival order and %d in the other", a, b)
	}
	if only := read([]float64{0.25}); a <= only {
		t.Fatalf("a read after three charges (%d) does not exceed a read after the first (%d)", a, only)
	}
}

func TestCounterMatchesExactEnergyWithinResolution(t *testing.T) {
	n := NewNode(0)
	if err := n.AccountBusy(0, 48); err != nil {
		t.Fatal(err)
	}
	if err := n.SetTime(2); err != nil {
		t.Fatal(err)
	}
	raw, err := n.ReadMSR(0, MSRPkgEnergyStatus)
	if err != nil {
		t.Fatal(err)
	}
	exact := n.ExactEnergy(PKG0)
	got := float64(raw) * EnergyUnit
	// Snapshot can lag by up to one update period of power plus one unit.
	maxLag := power.Skylake8160().PkgPower(48, 0)*2e-3 + EnergyUnit
	if math.Abs(got-exact) > maxLag {
		t.Fatalf("counter %g J vs exact %g J differ by more than %g", got, exact, maxLag)
	}
}

func TestCounterDeltaWrap(t *testing.T) {
	if got := CounterDelta(10, 20); math.Abs(got-10*EnergyUnit) > 1e-15 {
		t.Fatalf("simple delta = %g", got)
	}
	// Wrap: before near max, after small.
	before := uint32(math.MaxUint32 - 5)
	after := uint32(10)
	if got := CounterDelta(before, after); math.Abs(got-16*EnergyUnit) > 1e-12 {
		t.Fatalf("wrapped delta = %g, want %g", got, 16*EnergyUnit)
	}
}

func TestCounterDeltaWrapQuick(t *testing.T) {
	f := func(before uint32, adv uint16) bool {
		after := before + uint32(adv)
		return math.Abs(CounterDelta(before, after)-float64(adv)*EnergyUnit) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// wrapHorizon returns the time in seconds after which a domain counter
// wraps at the given sustained power.
func wrapHorizon(watts float64) float64 {
	if watts <= 0 {
		return math.Inf(1)
	}
	return float64(math.MaxUint32) * EnergyUnit / watts
}

func TestWrapHorizonPlausible(t *testing.T) {
	// At TDP a package counter must last minutes, not milliseconds —
	// justifying reads at start/stop only for the paper's job lengths.
	h := wrapHorizon(150)
	if h < 60 || h > 1e5 {
		t.Fatalf("wrap horizon at 150 W = %g s, implausible", h)
	}
	if !math.IsInf(wrapHorizon(0), 1) {
		t.Fatal("zero power must never wrap")
	}
}

func TestUnknownMSR(t *testing.T) {
	n := NewNode(0)
	if _, err := n.ReadMSR(0, 0xDEAD); err == nil {
		t.Fatal("unknown MSR read accepted")
	}
}

func TestDomainStringsAndSockets(t *testing.T) {
	if PKG0.String() != "PACKAGE_ENERGY:PACKAGE0" || DRAM1.String() != "DRAM_ENERGY:PACKAGE1" {
		t.Fatal("domain names drifted from the powercap naming")
	}
	if PKG0.Socket() != 0 || DRAM1.Socket() != 1 || Accel.Socket() != 0 {
		t.Fatal("domain→socket mapping wrong")
	}
	if len(Domains()) != 4 {
		t.Fatal("Domains() must list the four monitored domains")
	}
}
